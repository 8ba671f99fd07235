"""Tensor container format and checkpoint directory contract."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pst import io as tio
from pst import psa
from pst.errors import ContractError, DimensionError, FormatError
from pst.params import named_arrays


def valid_blob(shape=(2, 3), dtype=np.float32, seed=0):
    arr = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return arr, tio.tensor_bytes(arr)


class TestTensorBytes:
    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(0, 1000))
    def test_round_trip_bit_exact(self, dtype, shape, seed):
        arr = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        back = tio.tensor_from_bytes(tio.tensor_bytes(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_layout_is_as_documented(self):
        arr = np.array([[1.0, 2.0]], dtype=np.float32)
        blob = tio.tensor_bytes(arr)
        assert blob[:4] == b"PSTT"
        assert struct.unpack_from("<I", blob, 4)[0] == 1
        assert blob[8] == 0  # float32 code
        assert blob[9] == 2  # rank
        assert struct.unpack_from("<2I", blob, 10) == (1, 2)
        assert blob[18:] == arr.tobytes()
        assert len(blob) == 10 + 8 + 8

    def test_zero_extent_allowed(self):
        arr = np.zeros((0, 3), dtype=np.float64)
        back = tio.tensor_from_bytes(tio.tensor_bytes(arr))
        assert back.shape == (0, 3)

    def test_rank_zero_rejected(self):
        with pytest.raises(FormatError, match="rank-0"):
            tio.tensor_bytes(np.float32(3.0)[()] * np.ones(()))

    def test_unsupported_dtype(self):
        with pytest.raises(FormatError, match="dtype"):
            tio.tensor_bytes(np.zeros(3, dtype=np.int32))

    def test_non_contiguous_input(self):
        arr = np.random.default_rng(1).standard_normal((4, 4))[::2, ::2]
        back = tio.tensor_from_bytes(tio.tensor_bytes(arr))
        assert np.array_equal(back, arr)


class TestFormatErrors:
    def test_short_header(self):
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(b"PST")
        assert exc.value.offset == 3
        assert "(byte offset 3)" in str(exc.value)

    def test_bad_magic(self):
        _, blob = valid_blob()
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(b"NOPE" + blob[4:])
        assert exc.value.offset == 0

    def test_bad_version(self):
        _, blob = valid_blob()
        mangled = blob[:4] + struct.pack("<I", 9) + blob[8:]
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(mangled)
        assert exc.value.offset == 4

    def test_bad_dtype_code(self):
        _, blob = valid_blob()
        mangled = blob[:8] + bytes([7]) + blob[9:]
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(mangled)
        assert exc.value.offset == 8

    def test_bad_rank(self):
        _, blob = valid_blob()
        mangled = blob[:9] + bytes([0]) + blob[10:]
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(mangled)
        assert exc.value.offset == 9

    def test_truncated_extents(self):
        _, blob = valid_blob()
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(blob[:12])
        assert exc.value.offset == 12

    def test_truncated_payload(self):
        _, blob = valid_blob()
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(blob[:-5])
        assert exc.value.offset == len(blob) - 5

    def test_trailing_bytes(self):
        _, blob = valid_blob()
        with pytest.raises(FormatError) as exc:
            tio.tensor_from_bytes(blob + b"xx")
        assert exc.value.offset == len(blob)

    def test_extent_product_beyond_int64(self):
        extents = [2**32 - 1] * 4
        blob = tio._HEADER.pack(tio.MAGIC, tio.VERSION, 0, 4) + struct.pack("<4I", *extents)
        with pytest.raises(FormatError, match="payload ends early") as exc:
            tio.tensor_from_bytes(blob + bytes(8))
        assert exc.value.offset == len(blob) + 8


@st.composite
def damaged_blobs(draw):
    """A valid tensor file, then truncated, overwritten at a few bytes or
    given inserted bytes."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    arr = draw(hnp.arrays(dtype, tuple(shape), elements=st.floats(width=np.finfo(dtype).bits)))
    blob = bytearray(tio.tensor_bytes(arr))
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    if kind == "truncate":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if kind == "overwrite":
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    else:
        at = draw(st.integers(0, len(blob)))
        blob[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


class TestDamagedFiles:
    @given(damaged_blobs())
    def test_damaged_file_round_trips_or_raises_format_error(self, blob):
        try:
            arr = tio.tensor_from_bytes(blob)
        except FormatError:
            return
        assert tio.tensor_bytes(arr) == blob


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def tampered_manifests(draw, manifest: dict):
    """The text of ``manifest`` with one thing changed: the whole text, a
    top-level field, or one entry of the tensor table."""
    kind = draw(st.sampled_from(["bytes", "value", "field", "entry", "extra"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    tampered = json.loads(json.dumps(manifest))
    table = tampered["tensors"]
    if kind == "extra":
        table[draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in table))] = \
            draw(JSON_VALUES)
    else:
        owner, key = ((tampered, draw(st.sampled_from(sorted(tampered)))) if kind == "field"
                      else (table, draw(st.sampled_from(sorted(table)))))
        if draw(st.booleans()):
            del owner[key]
        else:
            old = json.dumps(owner[key])
            owner[key] = draw(JSON_VALUES.filter(lambda v: json.dumps(v) != old))
    return json.dumps(tampered).encode()


class TestTamperedManifests:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        cfg = psa.PsaConfig(token_dim=8, k=4)
        params = psa.PsaParams.create(cfg, np.random.default_rng(20), np.float32)
        root = tmp_path_factory.mktemp("tampered")
        return root, params, tio.save_checkpoint(root, params)

    @given(data=st.data())
    def test_tampered_manifest_raises(self, saved, data):
        root, params, manifest = saved
        text = data.draw(tampered_manifests(manifest))
        (root / tio.MANIFEST_NAME).write_bytes(text)
        with pytest.raises((FormatError, DimensionError)):
            tio.load_checkpoint(root, params)


class TestCheckpoints:
    @staticmethod
    def fresh_params(seed, fine_enabled=False):
        cfg = psa.PsaConfig(token_dim=8, k=4, fine_enabled=fine_enabled)
        return cfg, psa.PsaParams.create(cfg, np.random.default_rng(seed), np.float32)

    def test_round_trip_restores_values(self, tmp_path):
        _, original = self.fresh_params(0)
        original.bn_out.running_mean[...] = 0.25
        tio.save_checkpoint(tmp_path, original)
        _, blank = self.fresh_params(99)
        tio.load_checkpoint(tmp_path, blank)
        want = named_arrays(original)
        for name, arr in named_arrays(blank).items():
            assert arr.tobytes() == want[name].tobytes(), name

    def test_manifest_lists_every_tensor(self, tmp_path):
        _, p = self.fresh_params(1)
        manifest = tio.save_checkpoint(tmp_path, p)
        assert manifest["format"] == "PSTT"
        assert manifest["version"] == 1
        assert set(manifest["tensors"]) == set(named_arrays(p))
        assert (tmp_path / "wq.pstt").is_file()
        assert (tmp_path / "bn_out.running_var.pstt").is_file()

    def test_missing_manifest(self, tmp_path):
        _, p = self.fresh_params(2)
        with pytest.raises(FormatError, match="manifest.json"):
            tio.load_checkpoint(tmp_path, p)

    @staticmethod
    def assert_field_rejected(root, p, manifest, field, values):
        for value in values:
            tampered = dict(manifest)
            if value is None:
                del tampered[field]
            else:
                tampered[field] = value
            (root / "manifest.json").write_text(json.dumps(tampered))
            with pytest.raises(FormatError, match=field):
                tio.load_checkpoint(root, p)

    def test_bad_manifest_version(self, tmp_path):
        _, p = self.fresh_params(3)
        manifest = tio.save_checkpoint(tmp_path, p)
        self.assert_field_rejected(tmp_path, p, manifest, "version", [2, True, 1.0, "1", None])

    def test_bad_manifest_format(self, tmp_path):
        _, p = self.fresh_params(3)
        manifest = tio.save_checkpoint(tmp_path, p)
        self.assert_field_rejected(tmp_path, p, manifest, "format", ["PSTX", 1, None])

    def test_manifest_without_table(self, tmp_path):
        _, p = self.fresh_params(4)
        tio.save_checkpoint(tmp_path, p)
        (tmp_path / "manifest.json").write_text('{"format": "PSTT", "version": 1}')
        with pytest.raises(FormatError, match="tensor table"):
            tio.load_checkpoint(tmp_path, p)

    @pytest.mark.parametrize("text", ['{"format": "PSTT", ', "not json", "\udcff"])
    def test_malformed_manifest_json(self, tmp_path, text):
        _, p = self.fresh_params(10)
        tio.save_checkpoint(tmp_path, p)
        (tmp_path / "manifest.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError, match="not valid JSON"):
            tio.load_checkpoint(tmp_path, p)

    @pytest.mark.parametrize("text", ["[1]", '"x"', "null", "3"])
    def test_manifest_must_be_an_object(self, tmp_path, text):
        _, p = self.fresh_params(11)
        tio.save_checkpoint(tmp_path, p)
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(FormatError, match="not an object"):
            tio.load_checkpoint(tmp_path, p)

    def test_tree_mismatch_names_both_sides(self, tmp_path):
        gate_cfg = psa.PsaConfig(token_dim=8, fusion_mode="self_gating")
        gated = psa.PsaParams.create(gate_cfg, np.random.default_rng(5), np.float32)
        tio.save_checkpoint(tmp_path, gated)
        _, plain = self.fresh_params(6)
        with pytest.raises(DimensionError, match="extra.*gate_weight"):
            tio.load_checkpoint(tmp_path, plain)

    @pytest.mark.parametrize("entry", [
        "../evil.pstt", "sub/wq.pstt", "sub\\wq.pstt", "ABSOLUTE", "..", ".", "",
        "missing.pstt", "link.pstt", 7, None, ["wq.pstt"], "wk.pstt"])
    def test_manifest_entry_must_name_a_file_inside(self, tmp_path, entry):
        _, p = self.fresh_params(9)
        root = tmp_path / "ckpt"
        tio.save_checkpoint(root, p)
        outside = tmp_path / "evil.pstt"
        tio.save_tensor(outside, p.wq)
        (root / "sub").mkdir()
        tio.save_tensor(root / "sub" / "wq.pstt", p.wq)
        (root / "link.pstt").symlink_to(outside)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["tensors"]["wq"] = str(outside) if entry == "ABSOLUTE" else entry
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="manifest entry 'wq'"):
            tio.load_checkpoint(root, p)

    def test_save_replaces_the_directory_whole(self, tmp_path):
        _, p = self.fresh_params(12)
        root = tmp_path / "ckpt"
        tio.save_checkpoint(root, p)
        (root / "stale.pstt").write_bytes(b"left by an earlier save")
        root.chmod(0o750)
        tio.save_checkpoint(root, p)
        assert sorted(x.name for x in tmp_path.iterdir()) == ["ckpt"]
        assert not (root / "stale.pstt").exists()
        assert root.stat().st_mode & 0o777 == 0o750
        link = tmp_path / "latest"
        link.symlink_to(root, target_is_directory=True)
        p.wq[0, 0] += 1.0
        tio.save_checkpoint(link, p)
        assert link.is_symlink()
        assert (root / "wq.pstt").read_bytes() == tio.tensor_bytes(p.wq)

    @pytest.mark.parametrize("foreign", ["notes.txt", "sub", "link.pstt"])
    def test_save_refuses_a_directory_holding_other_files(self, tmp_path, foreign):
        _, p = self.fresh_params(14)
        root = tmp_path / "ckpt"
        tio.save_checkpoint(root, p)
        if foreign == "sub":
            (root / foreign).mkdir()
        elif foreign == "link.pstt":
            (root / foreign).symlink_to(root / "wq.pstt")
        else:
            (root / foreign).write_text("kept")
        before = tio.checkpoint_digest(root)
        with pytest.raises(FormatError, match=f"holds '{foreign}'"):
            tio.save_checkpoint(root, p)
        assert tio.checkpoint_digest(root) == before
        assert (root / foreign).exists()
        assert sorted(x.name for x in tmp_path.iterdir()) == ["ckpt"]

    def test_save_refuses_the_working_directory(self, tmp_path, monkeypatch):
        _, p = self.fresh_params(15)
        tio.save_checkpoint(tmp_path, p)
        before = tio.checkpoint_digest(tmp_path)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ContractError, match="working directory"):
            tio.save_checkpoint(".", p)
        assert tio.checkpoint_digest(".") == before

    def test_failed_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        _, p = self.fresh_params(13)
        root = tmp_path / "ckpt"
        tio.save_checkpoint(root, p)
        before = tio.checkpoint_digest(root)
        saved = {name: arr.copy() for name, arr in named_arrays(p).items()}
        calls = []
        real_save_tensor = tio.save_tensor

        def failing_save_tensor(path, arr):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            real_save_tensor(path, arr)

        for arr in named_arrays(p).values():
            arr += 1.0
        monkeypatch.setattr(tio, "save_tensor", failing_save_tensor)
        with pytest.raises(OSError, match="disk full"):
            tio.save_checkpoint(root, p)
        monkeypatch.undo()
        assert len(calls) == 3
        assert tio.checkpoint_digest(root) == before
        assert sorted(x.name for x in tmp_path.iterdir()) == ["ckpt"]
        _, blank = self.fresh_params(99)
        tio.load_checkpoint(root, blank)
        for name, arr in named_arrays(blank).items():
            assert arr.tobytes() == saved[name].tobytes(), name

    def test_digest_stable_across_fine_toggle(self, tmp_path):
        _, p_off = self.fresh_params(7, fine_enabled=False)
        _, p_on = self.fresh_params(7, fine_enabled=True)
        dir_off = tmp_path / "off"
        dir_on = tmp_path / "on"
        tio.save_checkpoint(dir_off, p_off)
        tio.save_checkpoint(dir_on, p_on)
        assert tio.checkpoint_digest(dir_off) == tio.checkpoint_digest(dir_on)

    def test_digest_tracks_content(self, tmp_path):
        _, p = self.fresh_params(8)
        tio.save_checkpoint(tmp_path, p)
        before = tio.checkpoint_digest(tmp_path)
        assert tio.checkpoint_digest(tmp_path) == before
        p.wq[0, 0] += 1.0
        tio.save_checkpoint(tmp_path, p)
        assert tio.checkpoint_digest(tmp_path) != before
