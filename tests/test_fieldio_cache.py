"""Binary field container round trips and the verified disk cache."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfpp import (FieldKind, FieldSample, InvalidArgument, InvalidSpec, LatticeSpec,
                  read_field, write_field)
from lfpp.cache import cache_entries, cache_key, cache_lookup, cache_store
from lfpp.fieldio import MAGIC, field_bytes, verify_field


def v2_header(n, spacing):
    return struct.pack("<4sHBIdQddB", MAGIC, 2, int(FieldKind.TORUS_WHOLE_PLANE),
                       n, spacing, 7, 0.0, 0.0, 0)


class TestFieldContainer:
    def test_round_trip_bitwise(self, field64, tmp_path):
        path = tmp_path / "f.lfpf"
        write_field(field64, path)
        back = read_field(path)
        assert np.array_equal(back.values, field64.values)
        assert back.spec.n == field64.spec.n
        assert back.spec.spacing == field64.spec.spacing
        assert back.kind is field64.kind
        assert back.seed == field64.seed
        assert back.spec.origin == field64.spec.origin
        assert back.mean_removed is field64.mean_removed is True
        assert back.derived is False

    @pytest.mark.parametrize("mean_removed, derived", [
        (True, False), (False, True), (False, False)])
    def test_round_trip_origin_and_flags(self, mean_removed, derived, tmp_path):
        spec = LatticeSpec(n=8, spacing=0.25, origin=(1.0, -0.5))
        values = np.arange(64, dtype=np.float64).reshape(8, 8)
        field = FieldSample(spec=spec, kind=FieldKind.DIRICHLET_SQUARE, seed=9,
                            values=values, mean_removed=mean_removed,
                            derived=derived)
        path = tmp_path / "f.lfpf"
        write_field(field, path)
        assert len(field_bytes(field)) == 44 + 64 * 8
        back = read_field(path)
        assert back.spec == spec
        assert (back.mean_removed, back.derived) == (mean_removed, derived)
        assert np.array_equal(back.values, values)
        assert verify_field(path)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(list(FieldKind)), seed=st.integers(0, 2 ** 64 - 1),
           origin=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
           spacing=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           mean_removed=st.booleans(), derived=st.booleans())
    def test_header_round_trips_every_field(self, kind, seed, origin, spacing,
                                            mean_removed, derived, tmp_path_factory):
        spec = LatticeSpec(n=8, spacing=spacing, origin=origin)
        values = np.arange(64, dtype=np.float64).reshape(8, 8)
        field = FieldSample(spec=spec, kind=kind, seed=seed, values=values,
                            mean_removed=mean_removed, derived=derived)
        path = tmp_path_factory.mktemp("lfpf") / "f.lfpf"
        write_field(field, path)
        back = read_field(path)
        assert back.spec == spec and back.kind is kind and back.seed == seed
        assert (back.mean_removed, back.derived) == (mean_removed, derived)
        assert np.array_equal(back.values, values)
        assert (int(back.kind), back.spec.n, back.spec.spacing, back.seed) == (
            int(kind), 8, spacing, seed)

    def test_version_1_file_still_reads(self, field64, tmp_path):
        v1 = struct.pack("<4sHBIdQ", MAGIC, 1, int(field64.kind), 64, 0.0625, 404)
        path = tmp_path / "v1.lfpf"
        path.write_bytes(v1 + field64.values.astype("<f8").tobytes())
        assert verify_field(path)
        back = read_field(path)
        assert (int(back.kind), back.spec.n, back.spec.spacing, back.seed) == (
            int(field64.kind), 64, 0.0625, 404)
        assert np.array_equal(back.values, field64.values)
        assert back.spec == LatticeSpec(n=64, spacing=0.0625)
        assert (back.mean_removed, back.derived) == (False, False)

    def test_unknown_flag_bits_rejected(self, field64, tmp_path):
        raw = bytearray(field_bytes(field64))
        raw[43] = 0x80
        path = tmp_path / "bad.lfpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidArgument):
            read_field(path)
        assert not verify_field(path)

    def test_serialization_is_deterministic(self, field64):
        assert field_bytes(field64) == field_bytes(field64)

    def test_header_fields(self, field64, tmp_path):
        path = tmp_path / "f.lfpf"
        write_field(field64, path)
        back = read_field(path)
        assert (int(back.kind), back.spec.n, back.spec.spacing, back.seed) == (
            int(field64.kind), 64, 0.0625, 404)

    def test_bad_magic_rejected(self, field64, tmp_path):
        raw = bytearray(field_bytes(field64))
        raw[:4] = b"NOPE"
        path = tmp_path / "bad.lfpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidArgument):
            read_field(path)

    def test_bad_version_rejected(self, field64, tmp_path):
        raw = bytearray(field_bytes(field64))
        raw[4:6] = (99).to_bytes(2, "little")
        path = tmp_path / "bad.lfpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidArgument):
            read_field(path)

    def test_bad_kind_byte_rejected(self, field64, tmp_path):
        raw = bytearray(field_bytes(field64))
        raw[6] = 250
        path = tmp_path / "bad.lfpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidArgument):
            read_field(path)

    def test_truncated_payload_rejected(self, field64, tmp_path):
        raw = field_bytes(field64)
        path = tmp_path / "short.lfpf"
        path.write_bytes(raw[:-16])
        with pytest.raises(InvalidArgument):
            read_field(path)
        assert not verify_field(path)

    def test_lattice_checked_before_the_payload(self, tmp_path):
        # an n = 8192 payload would be 512 MiB; this file holds the header only
        path = tmp_path / "big.lfpf"
        path.write_bytes(v2_header(8192, 1.0))
        with pytest.raises(InvalidSpec, match="at most 4096"):
            read_field(path)
        assert not verify_field(path)

    @pytest.mark.parametrize("n, spacing", [(3, 0.25), (8, math.inf)])
    def test_lattice_the_spec_rejects_fails_verification(self, n, spacing, tmp_path):
        path = tmp_path / "bad.lfpf"
        path.write_bytes(v2_header(n, spacing) + bytes(8 * n * n))   # payload fits
        assert not verify_field(path)
        with pytest.raises(InvalidSpec):
            read_field(path)

    def test_verify_field(self, field64, tmp_path):
        path = tmp_path / "f.lfpf"
        write_field(field64, path)
        assert verify_field(path)
        assert not verify_field(tmp_path / "missing.lfpf")
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00" * 5)
        assert not verify_field(junk)

    def test_magic_is_stable(self):
        assert MAGIC == b"LFPF"


class TestCacheKeys:
    def test_deterministic_and_order_free(self):
        k1 = cache_key("sample", {"n": 64, "spacing": 0.0625, "seed": 7})
        k2 = cache_key("sample", {"seed": 7, "n": 64, "spacing": 0.0625})
        assert k1 == k2 and len(k1) == 64

    def test_one_ulp_changes_the_key(self):
        base = cache_key("a_eps", {"epsilon": 0.125, "xi": 0.2})
        bumped = cache_key("a_eps",
                           {"epsilon": float(np.nextafter(0.125, 1.0)), "xi": 0.2})
        assert base != bumped

    def test_operation_name_enters_the_key(self):
        p = {"n": 8}
        assert cache_key("sample", p) != cache_key("dist", p)

    def test_unserializable_param_rejected(self):
        with pytest.raises(InvalidArgument):
            cache_key("sample", {"rng": object()})


class TestCacheStore:
    def test_store_then_lookup_field(self, field64, tmp_path):
        root = tmp_path / "cache"
        key = cache_key("sample", {"seed": 404})
        stored = cache_store(root, key, "field", field_bytes(field64))
        assert stored == root / (key + ".lfpf")
        hit = cache_lookup(root, key, "field")
        assert hit == stored
        assert np.array_equal(read_field(hit).values, field64.values)
        assert cache_entries(root)[0][:3] == (key, "field", key + ".lfpf")

    def test_miss_on_unknown_key(self, tmp_path):
        assert cache_lookup(tmp_path / "cache", "0" * 64, "field") is None

    def test_corrupt_artifact_evicted_with_warning(self, field64, tmp_path,
                                                   capsys):
        root = tmp_path / "cache"
        key = cache_key("sample", {"seed": 404})
        stored = cache_store(root, key, "field", field_bytes(field64))
        stored.write_bytes(stored.read_bytes()[:40])   # truncate in place
        assert cache_lookup(root, key, "field") is None
        assert "evicted" in capsys.readouterr().err
        assert not stored.exists()
        assert cache_entries(root) == []

    def test_json_artifact_needs_required_keys(self, tmp_path):
        root = tmp_path / "cache"
        good = {"epsilon": 0.125, "median": 1.0, "trials": 50,
                "ci_lo": 0.9, "ci_hi": 1.1, "master_seed": 1}
        k1 = cache_key("a_eps", {"v": 1})
        cache_store(root, k1, "a_eps", json.dumps(good).encode())
        assert cache_lookup(root, k1, "a_eps") is not None
        bad = {"epsilon": 0.125}
        k2 = cache_key("a_eps", {"v": 2})
        cache_store(root, k2, "a_eps", json.dumps(bad).encode())
        assert cache_lookup(root, k2, "a_eps") is None

    def test_unknown_kind_rejected(self, tmp_path):
        key = cache_key("x", {})
        with pytest.raises(InvalidArgument):
            cache_store(tmp_path / "cache", key, "mystery", b"{}")
        with pytest.raises(InvalidArgument):
            cache_lookup(tmp_path / "cache", key, "mystery")

    def test_no_temp_files_left_behind(self, field64, tmp_path):
        root = tmp_path / "cache"
        cache_store(root, cache_key("sample", {"seed": 1}), "field",
                    field_bytes(field64))
        assert not list(root.glob("*.tmp"))
