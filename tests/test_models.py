"""Edge-probability networks: initialization, forward traces, gradients."""

import copy

import numpy as np
import pytest

from lidar_edge.errors import DimensionError, ParameterError
from lidar_edge.layers import conv_backward, conv_forward, sigmoid, upsample_nearest
from lidar_edge.modelio import load_model, save_model
from lidar_edge.models import (NestedArch, PatchArch, PatchNetParams,
                               backward_nested, backward_patch, forward_nested,
                               forward_patch, init_nested, init_patch)
from lidar_edge.rng import SplitMix64

SMALL = NestedArch(stages=2, widths=(2, 3), input_hw=(8, 8))


def randomize(params, seed):
    """Give every tensor (side heads included) nonzero random values."""
    rng = SplitMix64(seed)
    for name, t in params.named_tensors():
        if name == "alpha":
            continue
        t[...] = (rng.floats(t.size).reshape(t.shape) - 0.5) * 0.8
    return params


def layer_arrays(params) -> list:
    """Every array a forward reads: each layer's kernel and bias, and alpha."""
    if isinstance(params, PatchNetParams):
        layers, rest = [params.conv1, params.conv2, params.fc1, params.fc2], []
    else:
        layers = [conv for pair in params.stage_convs for conv in pair] + params.side_heads
        rest = [params.alpha]
    return [a for layer in layers for a in (layer.weights, layer.bias)] + rest


class TestArch:
    def test_width_count_must_match_stages(self):
        with pytest.raises(ParameterError):
            NestedArch(stages=3, widths=(8, 16))

    def test_input_divisibility(self):
        with pytest.raises(ParameterError):
            NestedArch(stages=3, widths=(2, 2, 2), input_hw=(10, 12))

    @pytest.mark.parametrize("widths", [(0, 16, 32), (8, -1, 32)])
    def test_width_below_one_refused(self, widths):
        with pytest.raises(ParameterError, match="widths must be >= 1"):
            NestedArch(stages=3, widths=widths)

    @pytest.mark.parametrize("channels, hidden", [((0, 8), 32), ((4, -2), 32),
                                                  ((4, 8), 0), ((4,), 32)])
    def test_patch_size_below_one_refused(self, channels, hidden):
        with pytest.raises(ParameterError, match="all >= 1"):
            PatchArch(conv_channels=channels, hidden=hidden)

    def test_default_shape(self):
        arch = NestedArch()
        assert arch.stages == 3 and arch.widths == (8, 16, 32)


class TestInit:
    def test_deterministic(self):
        a = init_nested(SMALL, seed=1)
        b = init_nested(SMALL, seed=1)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    def test_seed_changes_weights(self):
        a = init_nested(SMALL, seed=1)
        b = init_nested(SMALL, seed=2)
        assert not np.array_equal(a.stage_convs[0][0].weights,
                                  b.stage_convs[0][0].weights)

    def test_he_uniform_bound(self):
        params = init_nested(NestedArch(stages=1, widths=(64,), input_hw=(8, 8)), 3)
        w = params.stage_convs[0][1].weights  # fan_in = 64 * 9
        bound = np.sqrt(6.0 / (64 * 9))
        assert np.all(np.abs(w) <= bound)
        assert w.std() > bound / 4  # actually spread out, not collapsed

    def test_alpha_starts_uniform(self):
        params = init_nested(SMALL, 0)
        np.testing.assert_allclose(params.alpha, [0.5, 0.5])

    def test_side_maps_start_at_half(self):
        params = init_nested(SMALL, 0)
        trace = forward_nested(params, SplitMix64(1).floats(64).reshape(8, 8))
        for prob in trace.side_probs:
            np.testing.assert_array_equal(prob, np.full((8, 8), 0.5))
        np.testing.assert_array_equal(trace.fused, np.full((8, 8), 0.5))

    def test_patch_init_shapes(self):
        """The named (saved) shapes; the fc weights are flat."""
        named = dict(init_patch(PatchArch(), 0).named_tensors())
        assert named["conv1.weights"].shape == (4, 1, 5, 5)
        assert named["conv2.weights"].shape == (8, 4, 5, 5)
        assert named["fc1.weights"].shape == (32, 16 * 8)
        assert named["fc2.weights"].shape == (1, 32)


class TestForwardNested:
    def test_output_shapes_and_range(self):
        params = init_nested(NestedArch(), 0)
        x = SplitMix64(2).floats(64 * 64).reshape(64, 64)
        trace = forward_nested(params, x)
        assert len(trace.side_probs) == 3
        for prob in trace.side_probs:
            assert prob.shape == (64, 64)
            assert prob.min() >= 0.0 and prob.max() <= 1.0
        assert trace.fused.shape == (64, 64)

    def test_side_logit_resolutions_halve(self):
        params = init_nested(NestedArch(), 0)
        trace = forward_nested(params, np.zeros((64, 64)))
        # each side head reads its stage's features at the stage's resolution
        assert [st.in_side.shape[-1] for st in trace.stages] == [64, 32, 16]

    def test_fused_is_convex_combination(self):
        params = randomize(init_nested(SMALL, 1), 9)
        params.alpha[...] = [0.3, 0.7]
        trace = forward_nested(params, SplitMix64(3).floats(64).reshape(8, 8))
        want = 0.3 * trace.side_probs[0] + 0.7 * trace.side_probs[1]
        np.testing.assert_allclose(trace.fused, want, rtol=1e-12)

    def test_deterministic(self):
        params = randomize(init_nested(SMALL, 1), 4)
        x = SplitMix64(5).floats(64).reshape(8, 8)
        a = forward_nested(params, x).fused
        b = forward_nested(params, x).fused
        np.testing.assert_array_equal(a, b)

    def test_wrong_input_size(self):
        params = init_nested(SMALL, 0)
        with pytest.raises(DimensionError):
            forward_nested(params, np.zeros((8, 10)))

    @pytest.mark.parametrize("image", [False, True], ids=["batch", "image"])
    def test_inference_matches_train_mode_bit_for_bit(self, image):
        """Inference keeps no columns and builds no pooling argmax, and it
        takes each side's sigmoid before the upsampling: every map is
        still the train-mode forward's, and each side map the sigmoid of
        the upsampled logit, bit for bit."""
        params = randomize(init_nested(NestedArch(stages=3, widths=(2, 3, 4),
                                                  input_hw=(16, 16)), 0), 6)
        for head in params.side_heads:  # logits of both signs and large ones
            head.weights *= 8.0
        x = 4.0 * SplitMix64(7).normals(2 * 256).reshape(2, 1, 16, 16)
        x = x[0, 0] if image else x
        infer = forward_nested(params, x)
        train = forward_nested(params, x, train_mode=True)
        assert infer.fused.tobytes() == train.fused.tobytes()
        assert len(infer.side_probs) == len(train.side_probs) == 3
        for s, (got, want) in enumerate(zip(infer.side_probs, train.side_probs)):
            assert got.shape == ((16, 16) if image else (2, 16, 16))
            assert got.tobytes() == want.tobytes()
            logit = conv_forward(infer.stages[s].in_side, params.side_heads[s])
            assert got.tobytes() == sigmoid(upsample_nearest(logit, 2 ** s))[..., 0, :, :].tobytes()


class TestBackwardNested:
    def test_matches_finite_differences_everywhere(self):
        """Analytic gradients vs central differences for a random scalar loss."""
        params = randomize(init_nested(SMALL, 2), 11)
        params.alpha[...] = [0.4, 0.6]
        rng = SplitMix64(12)
        x = rng.floats(64).reshape(8, 8)
        w_f = rng.floats(64).reshape(8, 8) - 0.5
        w_s = [rng.floats(64).reshape(8, 8) - 0.5 for _ in range(2)]

        def loss():
            tr = forward_nested(params, x)
            return float((tr.fused * w_f).sum()
                         + sum((p * w).sum() for p, w in zip(tr.side_probs, w_s)))

        trace = forward_nested(params, x)
        grads = backward_nested(params, trace, w_f, list(w_s))
        flat_analytic = dict(grads)

        eps = 1e-5
        for name, tensor in params.named_tensors():
            got = flat_analytic[name]
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + eps
                hi = loss()
                tensor[idx] = orig - eps
                lo = loss()
                tensor[idx] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd) + abs(got[idx]), 1e-8)
                assert abs(fd - got[idx]) / denom < 1e-4, (name, idx)

    def test_alpha_gradient_closed_form(self):
        params = randomize(init_nested(SMALL, 3), 5)
        x = SplitMix64(6).floats(64).reshape(8, 8)
        trace = forward_nested(params, x)
        d_fused = SplitMix64(7).floats(64).reshape(8, 8)
        grads = backward_nested(params, trace, d_fused,
                                [np.zeros((8, 8)), np.zeros((8, 8))])
        want = [float((d_fused * trace.side_probs[i]).sum()) for i in range(2)]
        np.testing.assert_allclose(dict(grads)["alpha"], want, rtol=1e-12)


class TestNamedGradients:
    @pytest.mark.parametrize("variant", ["nested", "patch"])
    def test_backward_follows_named_tensors(self, variant):
        """backward_* returns one (name, grad) per tensor, in named_tensors()
        order, each grad shaped like its tensor."""
        if variant == "nested":
            arch = NestedArch(stages=3, widths=(2, 3, 4), input_hw=(8, 8))
            params = randomize(init_nested(arch, 0), 1)
            trace = forward_nested(params, SplitMix64(2).floats(64).reshape(8, 8))
            grads = backward_nested(params, trace, np.ones((8, 8)),
                                    [np.ones((8, 8))] * 3)
        else:
            params = init_patch(PatchArch(conv_channels=(2, 3), hidden=5), 0)
            trace = forward_patch(params, SplitMix64(3).floats(784).reshape(1, 1, 28, 28))
            grads = [(name, g[0]) for name, g in backward_patch(params, trace, np.ones(1))]
        tensors = params.named_tensors()
        assert [name for name, _ in grads] == [name for name, _ in tensors]
        assert [g.shape for _, g in grads] == [t.shape for _, t in tensors]


class TestPatchNet:
    def test_forward_shape_pipeline(self):
        params = init_patch(PatchArch(), 0)
        trace = forward_patch(params, SplitMix64(1).floats(784).reshape(1, 1, 28, 28))
        assert trace.act1.shape == (1, 4, 24, 24)
        assert trace.pool1.shape == (1, 4, 12, 12)
        assert trace.act2.shape == (1, 8, 8, 8)
        assert trace.pool2.shape == (1, 8, 4, 4)
        assert trace.fc1_pre.shape == (1, 32, 1, 1)
        assert trace.prob.shape == (1,) and 0.0 < trace.prob[0] < 1.0

    def test_eval_mode_has_no_dropout(self):
        params = init_patch(PatchArch(dropout_rate=0.5), 0)
        x = SplitMix64(2).floats(784).reshape(1, 1, 28, 28)
        a = forward_patch(params, x, train_mode=False, seeds=[1]).prob
        b = forward_patch(params, x, train_mode=False, seeds=[2]).prob
        assert a == b

    def test_train_mode_dropout_depends_on_seed(self):
        params = init_patch(PatchArch(dropout_rate=0.5), 0)
        x = SplitMix64(3).floats(784).reshape(1, 1, 28, 28)
        probs = {forward_patch(params, x, train_mode=True, seeds=[s]).prob[0]
                 for s in range(8)}
        assert len(probs) > 1

    def test_backward_matches_finite_differences(self):
        params = init_patch(PatchArch(conv_channels=(2, 2), hidden=4,
                                      dropout_rate=0.0), 1)
        rng = SplitMix64(4)
        for name, t in params.named_tensors():
            t[...] = (rng.floats(t.size).reshape(t.shape) - 0.5) * 0.5
        x = rng.floats(784).reshape(1, 1, 28, 28)

        def loss():
            return forward_patch(params, x).prob[0]

        trace = forward_patch(params, x)
        grads = backward_patch(params, trace, np.ones(1))
        flat = {name: g[0] for name, g in grads}
        eps = 1e-5
        rng2 = SplitMix64(5)
        for name, tensor in params.named_tensors():
            got = flat[name]
            # spot-check a sample of coordinates per tensor to keep this fast
            for _ in range(min(12, tensor.size)):
                idx = np.unravel_index(rng2.randint(tensor.size), tensor.shape)
                orig = tensor[idx]
                tensor[idx] = orig + eps
                hi = loss()
                tensor[idx] = orig - eps
                lo = loss()
                tensor[idx] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd) + abs(got[idx]), 1e-8)
                assert abs(fd - got[idx]) / denom < 1e-4, (name, idx)

    def test_wrong_patch_size(self):
        """Only a batch (N, 1, 28, 28) is scored: not one patch on its own."""
        params = init_patch(PatchArch(), 0)
        for shape in [(1, 1, 27, 28), (28, 28), (1, 28, 28), (1, 2, 28, 28)]:
            with pytest.raises(DimensionError):
                forward_patch(params, np.zeros(shape))


class TestBatchedForwardBackward:
    """A batch gives exactly (np.array_equal) the stack of its examples'
    results, in eval and in train mode, for every map and gradient."""

    def test_nested(self):
        arch = NestedArch(stages=3, widths=(2, 3, 4), input_hw=(8, 8))
        params = randomize(init_nested(arch, 0), 1)
        params.alpha[...] = [0.2, 0.5, 0.3]
        rng = SplitMix64(2)
        x = rng.floats(3 * 64).reshape(3, 1, 8, 8)
        d_fused = rng.normals(3 * 64).reshape(3, 8, 8)
        d_sides = [rng.normals(3 * 64).reshape(3, 8, 8) for _ in range(3)]
        for train_mode in (False, True):
            trace = forward_nested(params, x, train_mode=train_mode)
            grads = backward_nested(params, trace, d_fused, d_sides)
            assert trace.fused.shape == (3, 8, 8)
            for n in range(3):
                one = forward_nested(params, x[n, 0])
                assert np.array_equal(trace.fused[n], one.fused)
                for got, want in zip(trace.side_probs, one.side_probs):
                    assert np.array_equal(got[n], want)
                one_grads = backward_nested(params, one, d_fused[n],
                                            [d[n] for d in d_sides])
                for (name, got), (_, want) in zip(grads, one_grads, strict=True):
                    assert np.array_equal(got[n], want), name

    def test_patch(self):
        arch = PatchArch(conv_channels=(2, 3), hidden=5, dropout_rate=0.5)
        params = randomize(init_patch(arch, 0), 3)
        rng = SplitMix64(4)
        x = rng.floats(3 * 784).reshape(3, 1, 28, 28)
        d_prob = rng.normals(3)
        seeds = [11, 12, 2 ** 63 + 5]
        for train_mode in (False, True):
            trace = forward_patch(params, x, train_mode=train_mode, seeds=seeds)
            grads = backward_patch(params, trace, d_prob)
            assert trace.prob.shape == (3,)
            for n in range(3):
                one = forward_patch(params, x[n:n + 1], train_mode=train_mode,
                                    seeds=seeds[n:n + 1])
                assert trace.prob[n] == one.prob[0]
                assert np.array_equal(trace.drop[n], one.drop[0])
                one_grads = backward_patch(params, one, d_prob[n:n + 1])
                for (name, got), (_, want) in zip(grads, one_grads, strict=True):
                    assert np.array_equal(got[n], want[0]), name

    def test_patch_needs_one_dropout_seed_per_patch(self):
        params = init_patch(PatchArch(conv_channels=(2, 2), hidden=4), 0)
        with pytest.raises(DimensionError):
            forward_patch(params, np.zeros((3, 1, 28, 28)), train_mode=True, seeds=[1, 2])


class TestFullyConnected:
    """The patch net's fc1 and fc2 run as the valid convolutions whose
    kernels cover their whole input; named_tensors() gives their weights
    flat, as they are saved, and those flat tensors are the kernels."""

    ARCH = PatchArch(conv_channels=(2, 3), hidden=5)

    def test_forward_formula(self):
        p = randomize(init_patch(self.ARCH, 0), 8)
        named = dict(p.named_tensors())
        rng = SplitMix64(9)
        for fc, in_shape in (("fc1", (3, 4, 4)), ("fc2", (5, 1, 1))):
            x = rng.floats(int(np.prod(in_shape))).reshape(in_shape)
            np.testing.assert_allclose(
                conv_forward(x, getattr(p, fc)).reshape(-1),
                named[f"{fc}.weights"] @ x.reshape(-1) + named[f"{fc}.bias"], rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        p = randomize(init_patch(self.ARCH, 0), 10)
        named = dict(p.named_tensors())
        rng = SplitMix64(8)
        x = rng.floats(3 * 16).reshape(3, 4, 4)
        rand = rng.floats(5).reshape(5, 1, 1)
        loss = lambda: float((conv_forward(x, p.fc1) * rand).sum())
        dx, dw, db = conv_backward(x, p.fc1, rand)
        eps = 1e-5
        for tensor, got in ((x, dx), (named["fc1.weights"], dw.reshape(5, 48)),
                            (named["fc1.bias"], db)):
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + eps
                hi = loss()
                tensor[idx] = orig - eps
                lo = loss()
                tensor[idx] = orig
                assert abs((hi - lo) / (2 * eps) - got[idx]) < 1e-9

    def test_shape_mismatch(self):
        p = init_patch(self.ARCH, 0)
        for wrong in (np.zeros((2, 4, 4)), np.zeros((3, 3, 3))):  # channels, size
            with pytest.raises(DimensionError):
                conv_forward(wrong, p.fc1)
        tensors = [t for _, t in p.named_tensors()]
        for i, wrong in ((5, np.zeros(4)),  # an fc1 bias one short of its 5 units
                         (4, tensors[4].T)):  # fc1's flat weights transposed
            with pytest.raises(DimensionError):
                PatchNetParams(self.ARCH, tensors[:i] + [wrong] + tensors[i + 1:])

    def test_conv_view_shares_the_saved_tensor(self):
        p = init_patch(PatchArch(), 0)
        assert p.fc1.weights.shape == (32, 8, 4, 4)
        assert p.fc2.weights.shape == (1, 32, 1, 1)
        named = dict(p.named_tensors())
        assert np.shares_memory(named["fc1.weights"], p.fc1.weights)
        assert np.shares_memory(named["fc2.weights"], p.fc2.weights)
        named["fc2.weights"][...] = 0.0  # the forward runs the kernel the name holds
        assert forward_patch(p, np.ones((1, 1, 28, 28))).prob[0] == 0.5

    def test_deep_copy_keeps_the_views(self):
        """Training keeps its best params as a deep copy; the copy's
        kernels view the copy's own flat weights, not the original's."""
        p = init_patch(PatchArch(), 0)
        q = copy.deepcopy(p)
        for (name, t), (_, original) in zip(q.named_tensors(), p.named_tensors()):
            np.testing.assert_array_equal(t, original, err_msg=name)
            assert not np.shares_memory(t, original)
        assert np.shares_memory(q.tensors[4], q.fc1.weights)
        assert np.shares_memory(q.tensors[6], q.fc2.weights)


class TestFlatVector:
    """Each net holds one flat parameter vector: every named tensor and
    every layer is a view of it, however the net was made."""

    NETS = {"nested": (lambda: randomize(init_nested(SMALL, 3), 4),
                       lambda p: forward_nested(p, np.linspace(0, 1, 64).reshape(8, 8)).fused),
            "patch": (lambda: init_patch(PatchArch(conv_channels=(2, 3), hidden=5), 3),
                      lambda p: forward_patch(p, np.linspace(0, 1, 784).reshape(1, 1, 28, 28))
                      .prob)}

    @pytest.fixture(params=[(v, how) for v in ("nested", "patch")
                            for how in ("init", "load_model", "deepcopy")],
                    ids=lambda vh: "-".join(vh))
    def net(self, request, tmp_path):
        """(params, forward) of each variant, as each way of making a net gives it."""
        variant, how = request.param
        init, forward = self.NETS[variant]
        params = init()
        if how == "load_model":
            save_model(params, tmp_path / "m.ledm")
            params = load_model(tmp_path / "m.ledm")
        elif how == "deepcopy":
            params = copy.deepcopy(params)
        return params, forward

    def test_tensors_and_layers_view_flat(self, net):
        params, _ = net
        assert params.flat.dtype == np.float64 and params.flat.ndim == 1
        assert params.flat.size == sum(t.size for t in params.tensors)
        for name, t in params.named_tensors():
            assert np.shares_memory(t, params.flat), name
        for a in layer_arrays(params):
            assert np.shares_memory(a, params.flat)

    def test_deep_copy_shares_nothing(self, net):
        params, _ = net
        q = copy.deepcopy(params)
        assert q.flat.tobytes() == params.flat.tobytes()
        for a in [q.flat, *q.tensors, *layer_arrays(q)]:
            assert not np.shares_memory(a, params.flat)

    def test_write_to_flat_reaches_forward(self, net):
        params, forward = net
        before = np.copy(forward(params))
        params.flat += 0.25
        after = forward(params)
        assert not np.array_equal(after, before)
        rebuilt = type(params)(params.arch, [t.copy() for t in params.tensors])
        assert np.array_equal(forward(rebuilt), after)
