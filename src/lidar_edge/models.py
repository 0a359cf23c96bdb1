"""The two from-scratch network variants.

Nested detector: S stages of two 3x3 same-padded conv+ReLU layers,
2x2 max pooling between stages so stage s runs at 1/2^s resolution.
Each stage feeds a 1x1 side head whose logit map is upsampled back to
the input resolution and squashed by a sigmoid; the final map is the
convex combination of the side maps with weights alpha on the
probability simplex.

Patch classifier: conv5x5-valid / ReLU / pool, twice, then two fully
connected layers (ReLU + inverted dropout between them), each run as
the valid convolution whose kernel covers its input, ending in a
single sigmoid unit that scores the patch's center pixel. Input is a
fixed 28x28 single-channel patch.

Both forwards take a batch with a leading axis, and the trace keeps
that axis on every map; both backwards return one gradient per example
along it, so the caller decides how a batch is averaged. The nested
forward also takes one image, (H, W), as `detect` runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .layers import (Columns, ConvParams, conv_backward, conv_forward,
                     dropout_mask, im2col, maxpool2x2_backward,
                     maxpool2x2_forward, relu, relu_backward, sigmoid,
                     sigmoid_backward, upsample_nearest,
                     upsample_nearest_backward)
from .rng import SplitMix64, splitmix64

PATCH_SIZE = 28


@dataclass(frozen=True)
class NestedArch:
    """One width per stage. Checks itself, as a LEDM descriptor builds one
    too (modelio._arch)."""
    widths: tuple
    input_hw: tuple

    @property
    def stages(self) -> int:
        return len(self.widths)

    def __post_init__(self):
        if not self.widths:
            raise ParameterError("need at least one stage width", ("widths",))
        if min(self.widths) < 1:
            raise ParameterError(f"stage widths must be >= 1, got {self.widths}", ("widths",))
        div = 2 ** (self.stages - 1)
        if self.input_hw[0] % div or self.input_hw[1] % div:
            raise ParameterError(
                f"input dims {self.input_hw} must be divisible by {div}",
                ("input_hw", "widths"))


@dataclass(frozen=True)
class PatchArch:
    patch_channels: tuple
    patch_hidden: int
    patch_dropout: float

    def __post_init__(self):
        if len(self.patch_channels) != 2 or min(*self.patch_channels, self.patch_hidden) < 1:
            raise ParameterError(f"need two conv channel counts and a hidden size, all >= 1, "
                                 f"got {self.patch_channels} and {self.patch_hidden}",
                                 ("patch_channels", "patch_hidden"))
        if not (0.0 <= self.patch_dropout < 1.0):
            raise ParameterError("patch_dropout must lie in [0, 1)", ("patch_dropout",))


def tensor_shapes(arch: NestedArch | PatchArch) -> list[tuple[str, tuple]]:
    """(name, shape) of every learnable tensor of arch, in the one order
    they are held, saved, updated and gradient-checked in. The patch net's
    fc weights are flat, (out, in)."""
    if isinstance(arch, NestedArch):
        convs, sides = [], []
        for s, (cin, w) in enumerate(zip((1, *arch.widths), arch.widths)):
            convs += [(f"stage{s}.conv_a.weights", (w, cin, 3, 3)), (f"stage{s}.conv_a.bias", (w,)),
                      (f"stage{s}.conv_b.weights", (w, w, 3, 3)), (f"stage{s}.conv_b.bias", (w,))]
            sides += [(f"side{s}.weights", (1, w, 1, 1)), (f"side{s}.bias", (1,))]
        return convs + sides + [("alpha", (arch.stages,))]
    c1, c2 = arch.patch_channels
    flat = 16 * c2  # 28 -> 24 -> 12 -> 8 -> 4 spatial, so 4*4*C2 features
    return [("conv1.weights", (c1, 1, 5, 5)), ("conv1.bias", (c1,)),
            ("conv2.weights", (c2, c1, 5, 5)), ("conv2.bias", (c2,)),
            ("fc1.weights", (arch.patch_hidden, flat)), ("fc1.bias", (arch.patch_hidden,)),
            ("fc2.weights", (1, arch.patch_hidden)), ("fc2.bias", (1,))]


def laid_end_to_end(tensors: list, lead: tuple = ()) -> np.ndarray:
    """Tensors in tensor_shapes order, each with the leading axes lead, as
    one float64 array of shape (*lead, total size): the layout of a net's
    flat vector, for the tensors themselves or for their gradients."""
    return np.concatenate([t.reshape(*lead, -1) for t in tensors], axis=-1,
                          dtype=np.float64)


def _named(params, tensors: list) -> list[tuple[str, np.ndarray]]:
    """Tensors or their gradients, given in tensor_shapes order, with their names."""
    return [(name, t) for (name, _), t in zip(tensor_shapes(params.arch), tensors, strict=True)]


@dataclass
class _Net:
    """The learnable tensors of arch in tensor_shapes(arch) order, each of
    the shape the table gives. The constructor copies them once into one
    flat vector, laid end to end; tensors, named_tensors() and the layers
    a subclass builds on them are views of it, so an in-place update of
    flat is an update of every tensor and layer."""
    arch: NestedArch | PatchArch
    tensors: list
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        got, table = [t.shape for t in self.tensors], tensor_shapes(self.arch)
        if got != [shape for _, shape in table]:
            raise DimensionError(f"tensor shapes {got} do not match {self.arch}: {table}")
        self.flat, self.tensors, end = laid_end_to_end(self.tensors), [], 0
        for _, shape in table:
            start, end = end, end + math.prod(shape)
            self.tensors.append(self.flat[start:end].reshape(shape))

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return _named(self, self.tensors)

    def __deepcopy__(self, memo):
        """A copy built on its own flat vector."""
        return type(self)(self.arch, self.tensors)


@dataclass
class NestedNetParams(_Net):
    stage_convs: list = field(init=False)  # per stage: (ConvParams, ConvParams), 3x3 same
    side_heads: list = field(init=False)   # per stage: ConvParams 1x1 -> 1 channel
    alpha: np.ndarray = field(init=False)  # (S,) fusion weights on the simplex

    def __post_init__(self):
        super().__post_init__()
        t, stages = self.tensors, self.arch.stages
        conv = lambda i: ConvParams(t[i], t[i + 1], padding="same")
        self.stage_convs = [(conv(4 * s), conv(4 * s + 2)) for s in range(stages)]
        self.side_heads = [conv(4 * stages + 2 * s) for s in range(stages)]
        self.alpha = t[-1]


@dataclass
class PatchNetParams(_Net):
    """fc1 and fc2 are held as the valid convolutions whose kernels cover
    their whole input, which is what a fully connected layer is (Long et
    al. 2015); their kernels are views of the flat weights."""
    conv1: ConvParams = field(init=False)  # 5x5 valid, 1 -> C1
    conv2: ConvParams = field(init=False)  # 5x5 valid, C1 -> C2
    fc1: ConvParams = field(init=False)    # 4x4 valid over (C2, 4, 4) -> hidden
    fc2: ConvParams = field(init=False)    # 1x1 over (hidden, 1, 1) -> 1

    def __post_init__(self):
        super().__post_init__()
        cw1, cb1, cw2, cb2, fw1, fb1, fw2, fb2 = self.tensors
        self.conv1 = ConvParams(cw1, cb1, padding="valid")
        self.conv2 = ConvParams(cw2, cb2, padding="valid")
        self.fc1 = ConvParams(fw1.reshape(len(fw1), -1, 4, 4), fb1, padding="valid")
        self.fc2 = ConvParams(fw2.reshape(len(fw2), -1, 1, 1), fb2, padding="valid")


def _init(arch, seed: int, drawn: str) -> list:
    """The tensors of arch in table order: He-uniform for each weights
    tensor whose name starts with drawn, with fan-in the product of every
    axis but the first, drawn in that order from SplitMix64(seed); zeros
    for the rest."""
    rng, tensors = SplitMix64(seed), []
    for name, shape in tensor_shapes(arch):
        if name.startswith(drawn) and name.endswith(".weights"):
            u = rng.floats(math.prod(shape)).reshape(shape)
            tensors.append((2.0 * u - 1.0) * np.sqrt(6.0 / math.prod(shape[1:])))
        else:
            tensors.append(np.zeros(shape))
    return tensors


def init_nested(arch: NestedArch, seed: int) -> NestedNetParams:
    """He-uniform conv weights, zero biases; side heads start at zero so
    every side map begins at exactly 0.5; alpha uniform over stages."""
    tensors = _init(arch, splitmix64(seed, 0), drawn="stage")
    tensors[-1][...] = 1.0 / arch.stages
    return NestedNetParams(arch, tensors)


def init_patch(arch: PatchArch, seed: int) -> PatchNetParams:
    """He-uniform weights, zero biases."""
    return PatchNetParams(arch, _init(arch, splitmix64(seed, 1), drawn=""))


@dataclass
class StageTrace:
    in_a: np.ndarray | Columns      # conv_a's input, or its Columns in train mode
    pre_a: np.ndarray
    in_b: np.ndarray | Columns      # conv_b's input (ReLU of pre_a), likewise
    feat: np.ndarray                # ReLU of conv_b's output: the side head's and the pool's input
    in_side: np.ndarray | Columns   # feat, or its Columns in train mode
    pooled: np.ndarray | None = None  # the pool's output, where a next stage reads it


@dataclass
class ForwardTrace:
    stages: list = field(default_factory=list)
    side_probs: list = field(default_factory=list)     # at input resolution
    fused: np.ndarray | None = None


def _keeper(train_mode: bool):
    """What a trace keeps of a convolution's input: its Columns in train
    mode, so the backward does not rebuild them, else the input itself,
    so inference holds no more than one layer's columns at a time."""
    return im2col if train_mode else (lambda x, p: x)


def forward_nested(params: NestedNetParams, x: np.ndarray,
                   train_mode: bool = False) -> ForwardTrace:
    """Full forward pass of one image (H, W) or of a batch (N, 1, H, W);
    retains every intermediate needed by backward.

    side_probs and fused are (H, W) for one image and (N, H, W) for a
    batch. train_mode keeps each convolution's columns for the backward.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[np.newaxis]  # (1, H, W): one channel, and no example axis on any map
    elif x.ndim != 4:
        raise DimensionError(f"expected an (H, W) image or an (N, 1, H, W) batch, got {x.shape}")
    if x.shape[-2:] != tuple(params.arch.input_hw):
        raise DimensionError(
            f"input {x.shape[-2:]} does not match arch {params.arch.input_hw}")
    keep = _keeper(train_mode)
    trace = ForwardTrace()
    feat_in = x
    for s, (conv_a, conv_b) in enumerate(params.stage_convs):
        head = params.side_heads[s]
        in_a = keep(feat_in, conv_a)
        pre_a = conv_forward(in_a, conv_a)
        in_b = keep(relu(pre_a), conv_b)
        feat = relu(conv_forward(in_b, conv_b))
        in_side = keep(feat, head)
        st = StageTrace(in_a=in_a, pre_a=pre_a, in_b=in_b, feat=feat, in_side=in_side)
        # sigmoid is elementwise, so it is taken before the upsampling, on
        # 1/4^s as many pixels
        logit = conv_forward(in_side, head)
        trace.side_probs.append(upsample_nearest(sigmoid(logit), 2 ** s)[..., 0, :, :])
        if s + 1 < params.arch.stages:
            feat_in = st.pooled = maxpool2x2_forward(feat)
        trace.stages.append(st)
    # plain weighted sum with no simplex check: gradients w.r.t. alpha
    # are taken on the unconstrained weights, and feasibility is restored
    # by the optimizer's simplex projection after each step
    trace.fused = sum(a * s for a, s in zip(params.alpha, trace.side_probs))
    return trace


def backward_nested(params: NestedNetParams, trace: ForwardTrace,
                    d_fused: np.ndarray, d_sides: list) -> list[tuple[str, np.ndarray]]:
    """Reverse-mode gradients for every learnable tensor, as (name, grad)
    in named_tensors() order; for a batch, each grad has one gradient per
    example along its leading axis.

    d_fused is dL/d(fused map); d_sides[i] is the DIRECT dL/d(side map i)
    from that side's own loss term (the fusion path is added here). The
    alpha gradient is taken on the stored weights, before any simplex
    projection the optimizer applies.
    """
    if len(d_sides) != params.arch.stages:
        raise DimensionError(f"expected {params.arch.stages} side gradients")
    d_alpha = np.stack([(d_fused * y).sum(axis=(-2, -1)) for y in trace.side_probs], axis=-1)
    d_feat_next = None  # gradient flowing from stage s+1 back through its pool
    head_grads: list = [None] * params.arch.stages
    conv_grads: list = [None] * params.arch.stages
    for s in range(params.arch.stages - 1, -1, -1):
        st = trace.stages[s]
        y_side = trace.side_probs[s]
        d_prob = d_sides[s] + params.alpha[s] * d_fused
        d_up = sigmoid_backward(y_side, d_prob)[..., np.newaxis, :, :]
        d_logit = upsample_nearest_backward(d_up, 2 ** s)
        d_feat, d_hw, d_hb = conv_backward(st.in_side, params.side_heads[s], d_logit)
        head_grads[s] = (d_hw, d_hb)
        if d_feat_next is not None:
            d_feat = d_feat + maxpool2x2_backward(st.feat, st.pooled, d_feat_next)
        conv_a, conv_b = params.stage_convs[s]
        d_pre_b = relu_backward(st.feat, d_feat)
        d_act_a, d_wb, d_bb = conv_backward(st.in_b, conv_b, d_pre_b)
        d_pre_a = relu_backward(st.pre_a, d_act_a)
        # the input image needs no gradient
        d_feat_next, d_wa, d_ba = conv_backward(st.in_a, conv_a, d_pre_a, input_grad=s > 0)
        conv_grads[s] = (d_wa, d_ba, d_wb, d_bb)
    return _named(params, [g for convs in conv_grads for g in convs]
                  + [g for head in head_grads for g in head] + [d_alpha])


@dataclass
class PatchTrace:
    ins: tuple          # inputs of conv1, conv2, fc1, fc2; Columns in train mode
    act1: np.ndarray    # ReLU of conv1's output: the first pool's input
    pool1: np.ndarray
    act2: np.ndarray    # ReLU of conv2's output: the second pool's input
    pool2: np.ndarray
    fc1_pre: np.ndarray
    drop: np.ndarray
    prob: np.ndarray


def forward_patch(params: PatchNetParams, patches: np.ndarray,
                  train_mode: bool = False, seeds=()) -> PatchTrace:
    """Score a batch of 28x28 patches, (N, 1, 28, 28); returns the full
    trace, with the scores, (N,), in .prob.

    train_mode draws the inverted-dropout mask of each patch from its
    seed, one of the N seeds, and keeps each layer's columns for the
    backward.
    """
    x = np.asarray(patches, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != (1, PATCH_SIZE, PATCH_SIZE):
        raise DimensionError(f"patches must be (N, 1, 28, 28), got {x.shape}")
    keep = _keeper(train_mode)
    in1 = keep(x, params.conv1)
    act1 = relu(conv_forward(in1, params.conv1))          # C1 x 24 x 24
    pool1 = maxpool2x2_forward(act1)                      # C1 x 12 x 12
    in2 = keep(pool1, params.conv2)
    act2 = relu(conv_forward(in2, params.conv2))          # C2 x 8 x 8
    pool2 = maxpool2x2_forward(act2)                      # C2 x 4 x 4
    in_fc1 = keep(pool2, params.fc1)
    fc1_pre = conv_forward(in_fc1, params.fc1)            # hidden x 1 x 1
    fc1_act = relu(fc1_pre)
    if train_mode and params.arch.patch_dropout > 0:
        drop = dropout_mask(fc1_act.shape[-3:], params.arch.patch_dropout, seeds)
        if drop.shape != fc1_act.shape:
            raise DimensionError(f"dropout masks {drop.shape} for activations {fc1_act.shape}")
    else:
        drop = np.ones_like(fc1_act)
    in_fc2 = keep(fc1_act * drop, params.fc2)
    logit = conv_forward(in_fc2, params.fc2)              # 1 x 1 x 1
    return PatchTrace(ins=(in1, in2, in_fc1, in_fc2), act1=act1, pool1=pool1, act2=act2,
                      pool2=pool2, fc1_pre=fc1_pre, drop=drop,
                      prob=sigmoid(logit).reshape(len(x)))


def backward_patch(params: PatchNetParams, trace: PatchTrace,
                   d_prob) -> list[tuple[str, np.ndarray]]:
    """Gradients of a scalar loss given dL/d(prob), (N,), as (name, grad)
    in named_tensors() order, one gradient per patch along each grad's
    leading axis."""
    in1, in2, in_fc1, in_fc2 = trace.ins
    n = len(trace.prob)
    d_logit = np.reshape(d_prob * trace.prob * (1.0 - trace.prob), (n, 1, 1, 1))
    d_fc1_out, d_w2, d_b2 = conv_backward(in_fc2, params.fc2, d_logit)
    d_fc1_pre = relu_backward(trace.fc1_pre, d_fc1_out * trace.drop)
    d_pool2, d_w1, d_b1 = conv_backward(in_fc1, params.fc1, d_fc1_pre)
    d_act2 = maxpool2x2_backward(trace.act2, trace.pool2, d_pool2)
    d_pre2 = relu_backward(trace.act2, d_act2)
    d_pool1, d_cw2, d_cb2 = conv_backward(in2, params.conv2, d_pre2)
    d_act1 = maxpool2x2_backward(trace.act1, trace.pool1, d_pool1)
    d_pre1 = relu_backward(trace.act1, d_act1)
    _, d_cw1, d_cb1 = conv_backward(in1, params.conv1, d_pre1, input_grad=False)
    return _named(params, [d_cw1, d_cb1, d_cw2, d_cb2,  # fc grads flat, as named
                           d_w1.reshape(n, params.arch.patch_hidden, -1), d_b1,
                           d_w2.reshape(n, 1, -1), d_b2])
