"""Property fuzzing of the five file readers the CLI uses: whatever the
bytes, each reader returns a value or raises a LidarEdgeError, never
anything else.

The config and manifest readers also get well-formed JSON built from a
valid document with some leaves swapped for arbitrary JSON values, so
the fuzz reaches the typed checks behind the parser; the model reader
also gets valid LEDM files with some bytes changed and the CRC32 made
to match again, so it reaches the checks behind the checksum. The runs
are deterministic (derandomized, no example database).

The searches run in one child Python whose address space is capped, so
a reader that allocates without bound fails its test with a MemoryError
instead of exhausting the host's memory; the limit is set in the child
only.
"""

import copy
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lidar_edge
from lidar_edge.config import DEFAULTS, Config
from lidar_edge.errors import LidarEdgeError
from lidar_edge.formats import read_lri, read_manifest, read_pgm
from lidar_edge.modelio import load_model, save_model
from lidar_edge.models import NestedArch, PatchArch, init_nested, init_patch

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# JSON values of every kind, NaN and the infinities included (json writes
# them as NaN and Infinity, and reads them back)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8)

MANIFEST_LINE = {"id": "sample_0000", "range": "sample_0000.lri",
                 "intensity": "sample_0000.pgm", "label": "sample_0000_label.pgm",
                 "split": "train"}


def leaves(doc, path=()):
    """The key paths of the non-object values of a JSON object."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key)


@st.composite
def with_leaves_replaced(draw, doc):
    """doc with up to three of its leaves replaced by arbitrary JSON values."""
    doc = copy.deepcopy(doc)
    for path in draw(st.lists(st.sampled_from(list(leaves(doc))), max_size=3, unique=True)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(JSON)
    return doc


ADDRESS_CAP = 1 << 30  # bytes; a child that imports the readers maps about 170 MB
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
    [str(Path(lidar_edge.__file__).parents[1]), str(Path(__file__).parent)]))


def run_capped(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a child Python whose address space is capped at ADDRESS_CAP."""
    cap = ("import resource\n"
           f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP}))\n")
    return subprocess.run([sys.executable, "-c", cap + code, *argv], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=600)


# runs every search of SEARCHES on one scratch file in directory argv[1],
# and writes {test name: traceback} of those that failed to failed.json there
SEARCH_ALL = """
import json, sys, traceback
from pathlib import Path
import test_readers_fuzz
failed = {}
for name, (search, *args) in test_readers_fuzz.SEARCHES.items():
    try:
        search(Path(sys.argv[1], "input"), *args)
    except Exception:
        failed[name] = traceback.format_exc()
Path(sys.argv[1], "failed.json").write_text(json.dumps(failed))
"""


@pytest.fixture(scope="module")
def failed(tmp_path_factory):
    """{test name: traceback} of the searches that failed in the capped child."""
    work = tmp_path_factory.mktemp("fuzz")
    done = run_capped(SEARCH_ALL, str(work))
    assert done.returncode == 0, done.stderr
    return json.loads((work / "failed.json").read_text())


def test_the_cap_holds():
    done = run_capped(f"bytearray({ADDRESS_CAP})")
    assert done.returncode != 0 and "MemoryError" in done.stderr, done.stderr


def read_config(path):
    cfg = Config.load(path)
    cfg.check()
    return [view() for view in (cfg.lidar, cfg.scene_policy, cfg.augment_spec,
                                cfg.nested_arch, cfg.patch_arch, cfg.train_config,
                                cfg.out_dir, cfg.model_path)]


def returns_or_raises_typed(reader, path):
    try:
        reader(path)
    except LidarEdgeError:
        pass


READERS = {"config": read_config, "manifest": read_manifest, "pgm": read_pgm,
           "lri": read_lri, "ledm": load_model}


@FUZZ
@given(data=st.binary(max_size=256))
def any_bytes(scratch, reader, data):
    scratch.write_bytes(data)
    returns_or_raises_typed(READERS[reader], scratch)


@FUZZ
@given(head=st.sampled_from([b"{", b"[", b"P5\n", b"LRI1", b"LEDM"]),
       data=st.binary(max_size=64))
def bytes_after_a_valid_start(scratch, reader, head, data):
    scratch.write_bytes(head + data)
    returns_or_raises_typed(READERS[reader], scratch)


@FUZZ
@given(doc=with_leaves_replaced(DEFAULTS))
def config_with_leaves_replaced(scratch, doc):
    scratch.write_text(json.dumps(doc), encoding="utf-8")
    returns_or_raises_typed(read_config, scratch)


@FUZZ
@given(lines=st.lists(with_leaves_replaced(MANIFEST_LINE) | JSON, min_size=1, max_size=3))
def manifest_with_leaves_replaced(scratch, lines):
    scratch.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    returns_or_raises_typed(read_manifest, scratch)


def ledm_bytes(params, path):
    save_model(params, path)
    return path.read_bytes()


@FUZZ
@given(kind=st.sampled_from(["nested", "patch"]),
       edits=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 255)), min_size=1,
                      max_size=4))
def ledm_with_bytes_changed_and_crc_fixed(scratch, kind, edits):
    """The descriptor and the first tensor headers lie in the first 80
    bytes; the CRC32 is recomputed, so the changed file passes it."""
    params = (init_nested(NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8)), 0)
              if kind == "nested" else init_patch(PatchArch(conv_channels=(2, 2), hidden=3), 0))
    raw = bytearray(ledm_bytes(params, scratch)[:-4])
    for pos, value in edits:
        raw[pos] = value
    scratch.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
    returns_or_raises_typed(load_model, scratch)


# test name -> (search, its arguments after the scratch file)
SEARCHES = {
    **{f"test_any_bytes[{reader}]": (any_bytes, reader) for reader in READERS},
    **{f"test_bytes_after_a_valid_start[{reader}]": (bytes_after_a_valid_start, reader)
       for reader in READERS},
    "test_config_with_leaves_replaced": (config_with_leaves_replaced,),
    "test_manifest_with_leaves_replaced": (manifest_with_leaves_replaced,),
    "test_ledm_with_bytes_changed_and_crc_fixed": (ledm_with_bytes_changed_and_crc_fixed,),
}


def assert_search_passed(failed, name):
    assert name in SEARCHES, f"no search runs for {name}"
    assert name not in failed, failed[name]


@pytest.mark.parametrize("reader", list(READERS))
def test_any_bytes(failed, request, reader):
    assert_search_passed(failed, request.node.name)


@pytest.mark.parametrize("reader", list(READERS))
def test_bytes_after_a_valid_start(failed, request, reader):
    assert_search_passed(failed, request.node.name)


def test_config_with_leaves_replaced(failed, request):
    assert_search_passed(failed, request.node.name)


def test_manifest_with_leaves_replaced(failed, request):
    assert_search_passed(failed, request.node.name)


def test_ledm_with_bytes_changed_and_crc_fixed(failed, request):
    assert_search_passed(failed, request.node.name)
