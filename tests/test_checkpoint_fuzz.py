"""Property: ``load_checkpoint`` returns a ``Checkpoint`` or raises
``CheckpointError`` for any file content, and nothing else escapes."""
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpstyler.losses import ClassifierHead
from dpstyler.remover import StyleRemoverParams
from dpstyler.trainer import (
    _HEADER,
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

_rng = np.random.default_rng(0)
VALID = Checkpoint(
    remover=StyleRemoverParams(
        W1=_rng.standard_normal((8, 2)).astype(np.float32),
        W2=_rng.standard_normal((2, 8)).astype(np.float32),
        ratio=4,
    ),
    head=ClassifierHead(weights=_rng.standard_normal((3, 8)).astype(np.float32)),
    template_pattern="a [class] in a S* style",
    class_names=("cat", "dog", "fish"),
    dim_token=4,
    backend_tag="toy",
    seed=7,
)

# A small alphabet: full-Unicode text would make Hypothesis build its
# character tables, about 3 s per session.
words = st.text("acdgost S*[]", max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | words,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(words, inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def valid_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.ckpt"
    save_checkpoint(VALID, path)
    return path, path.read_bytes()


def _split(blob):
    end = len(CHECKPOINT_MAGIC) + 4 + struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))[0]
    return json.loads(blob[len(CHECKPOINT_MAGIC) + 4 : end]), blob[end:]


def _join(header, body):
    new = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new + body


def _loads_or_typed_error(path, blob):
    path.write_bytes(blob)
    try:
        assert isinstance(load_checkpoint(path), Checkpoint)
    except CheckpointError:
        pass


def test_valid_blob_loads(valid_blob):
    path, blob = valid_blob
    np.testing.assert_array_equal(load_checkpoint(path).head.weights, VALID.head.weights)


def test_saved_bytes_are_pinned(valid_blob):
    # Any change to the bytes save_checkpoint writes for VALID shows here.
    digest = "eae5362bedbdc23695c2bdd0cdcfc8c3aa7a40201c4f45cb40ffe416fa9ba78b"
    assert hashlib.sha256(valid_blob[1]).hexdigest() == digest


@given(data=st.binary(max_size=256) | st.binary(max_size=256).map(CHECKPOINT_MAGIC.__add__))
@example(data=CHECKPOINT_MAGIC + struct.pack("<I", 100_000) + b"[" * 100_000)
def test_arbitrary_bytes(valid_blob, data):
    _loads_or_typed_error(valid_blob[0].with_name("bytes.ckpt"), data)


HEADER_KEYS = (
    "backend_tag", "class_names", "config", "dim_joint", "dim_token", "format_version",
    "ratio", "seed", "template_pattern",
)


def test_header_keys_cover_the_saved_header(valid_blob):
    assert sorted(_split(valid_blob[1])[0]) == list(HEADER_KEYS) == sorted(_HEADER)


_README_TYPES = {"integer": int, "string": str, "list of strings": list, "object": dict}


def test_readme_lists_the_header_keys():
    # The README's checkpoint paragraph lists each header key with its JSON type.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^- `(\w+)` \(([a-z ]+)\):", readme, flags=re.MULTILINE)
    assert {key: _README_TYPES[kind] for key, kind in listed} == _HEADER
    assert len(listed) == len(_HEADER)


@pytest.mark.parametrize("key", sorted(_HEADER))
def test_missing_header_key_is_typed(valid_blob, key):
    path, blob = valid_blob
    header, body = _split(blob)
    del header[key]
    path = path.with_name("missing.ckpt")
    path.write_bytes(_join(header, body))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# One wrong-typed value per JSON type: a bool for an int, an int for a
# string, a string for a list, a list for an object.
_WRONG = {int: True, str: 5, list: "cat", dict: []}


@pytest.mark.parametrize(
    "key, value",
    [(key, _WRONG[kind]) for key, kind in sorted(_HEADER.items())]
    + [("class_names", ["cat", 5, "fish"])],
)
def test_wrong_typed_header_value_is_typed(valid_blob, key, value):
    path, blob = valid_blob
    header, body = _split(blob)
    header[key] = value
    path = path.with_name("wrong-type.ckpt")
    path.write_bytes(_join(header, body))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@given(key=st.sampled_from(HEADER_KEYS), value=json_values)
def test_one_header_value_replaced(valid_blob, key, value):
    path, blob = valid_blob
    header, body = _split(blob)
    header[key] = value
    _loads_or_typed_error(path.with_name("header.ckpt"), _join(header, body))


def test_header_integer_beyond_the_digit_limit(valid_blob):
    # json.loads refuses an integer of more than 4,300 digits (Python's
    # int-string limit) with a bare ValueError; json.dumps would refuse
    # to write one, so the header text is edited.
    path, blob = valid_blob
    header, body = _split(blob)
    new = json.dumps(header).replace('"seed": 7', '"seed": ' + "9" * 5000).encode("utf-8")
    path = path.with_name("digits.ckpt")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new + body)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(path)


@given(key=st.sampled_from(["dim_joint", "dim_token", "ratio"]), value=st.integers())
@example(key="dim_joint", value=2**62)  # a body of exabytes: refused before allocation
@example(key="ratio", value=0)
def test_one_dim_replaced_by_any_integer(valid_blob, key, value):
    path, blob = valid_blob
    header, body = _split(blob)
    header[key] = value
    _loads_or_typed_error(path.with_name("dims.ckpt"), _join(header, body))


def test_format_v1_file_is_refused(valid_blob):
    # A whole version 1 file: the same body, and a header that also held
    # the array manifest, the class count and the template id.
    path, blob = valid_blob
    header, body = _split(blob)
    C, M, hidden = 8, 3, 2
    header.update(
        format_version=1, num_classes=M, template_id=VALID.template_id,
        arrays=[{"name": "W1", "shape": [C, hidden], "offset": 0},
                {"name": "W2", "shape": [hidden, C], "offset": 4 * C * hidden},
                {"name": "head", "shape": [M, C], "offset": 8 * C * hidden}],
    )
    path = path.with_name("v1.ckpt")
    path.write_bytes(_join(header, body))
    with pytest.raises(CheckpointError, match=r"unsupported format version 1 \(expected 2\)"):
        load_checkpoint(path)


@given(data=st.data())
def test_body_bytes_overwritten(valid_blob, data):
    path, blob = valid_blob
    body_len = len(_split(blob)[1])
    at = data.draw(st.integers(0, body_len - 1), label="at")
    patch = data.draw(st.binary(min_size=1, max_size=body_len - at), label="patch")
    start = len(blob) - body_len + at
    _loads_or_typed_error(
        path.with_name("body.ckpt"), blob[:start] + patch + blob[start + len(patch) :]
    )
