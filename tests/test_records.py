import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import poptomo as pt
import oracles


def simple_record(n_times=6):
    times = np.arange(n_times) * 1e-6
    means = np.tile(np.array([0.4, 0.3, 0.1, 0.1, 0.1])[:, None], (1, n_times))
    sigmas = np.full((5, n_times), 2e-3)
    return pt.MeasurementRecord(times=times, means=means, sigmas=sigmas, repeats=5)


class TestValidation:
    @pytest.mark.parametrize("times", [[0.0, 1e-6, 1e-6], [], [0.0, np.nan, 2e-6]])
    def test_non_increasing_times(self, times):
        with pytest.raises(pt.SchemaError, match="times"):
            pt.MeasurementRecord(
                times=np.array(times),
                means=np.full((2, 3), 0.5),
                sigmas=np.full((2, 3), 0.01),
            )

    def test_column_sum_slack(self):
        means = np.full((2, 3), 0.5)
        means[0, 1] = 0.54  # column sums to 1.04 > 1.02
        nan_means = np.full((2, 3), 0.5)
        nan_means[1, 2] = np.nan
        for bad in (means, np.full(3, 0.5), nan_means):
            with pytest.raises(pt.SchemaError, match="means"):
                pt.MeasurementRecord(
                    times=np.arange(3) * 1e-6,
                    means=bad,
                    sigmas=np.full((2, 3), 0.01),
                )

    def test_zero_sigma_rejected_on_direct_construction(self):
        with pytest.raises(pt.SchemaError, match="sigmas"):
            pt.MeasurementRecord(
                times=np.arange(3) * 1e-6,
                means=np.full((2, 3), 0.5),
                sigmas=np.zeros((2, 3)),
            )

    def test_shape_mismatch(self):
        with pytest.raises(pt.SchemaError, match="sigmas"):
            pt.MeasurementRecord(
                times=np.arange(3) * 1e-6,
                means=np.full((2, 3), 0.5),
                sigmas=np.full((2, 4), 0.01),
            )

    def test_record_is_frozen(self):
        record = simple_record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.means = np.zeros((5, 6))

    def test_bad_repeats(self):
        with pytest.raises(pt.SchemaError, match="repeats"):
            pt.MeasurementRecord(
                times=np.arange(3) * 1e-6,
                means=np.full((2, 3), 0.5),
                sigmas=np.full((2, 3), 0.01),
                repeats=0,
            )


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        record = simple_record()
        path = tmp_path / "rec.csv"
        pt.save_record(record, path)
        back = pt.load_record(path)
        np.testing.assert_array_equal(back.times, record.times)
        np.testing.assert_array_equal(back.means, record.means)
        np.testing.assert_array_equal(back.sigmas, record.sigmas)
        assert back.repeats == record.repeats

    def test_deterministic_bytes(self, tmp_path):
        record = simple_record()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pt.save_record(record, a)
        pt.save_record(record, b)
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_written(self, tmp_path):
        record = simple_record()
        path = tmp_path / "rec.csv"
        pt.save_record(record, path)
        assert (tmp_path / "rec.meta.json").exists()

    def test_writer_text_pinned(self, tmp_path):
        record = pt.MeasurementRecord(
            times=[0.0, 1e-6],
            means=[[0.25, 0.5], [0.75, 0.5]],
            sigmas=[[0.01, 0.02], [0.01, 0.02]],
            repeats=3,
            meta={"note": "x", "warnings": []},
        )
        path = tmp_path / "rec.csv"
        pt.save_record(record, path)
        assert path.read_text() == (
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.25,0.75,0.01,0.01\n"
            "1e-06,0.5,0.5,0.02,0.02\n"
        )
        assert (tmp_path / "rec.meta.json").read_text() == (
            '{\n  "dim": 2,\n  "repeats": 3,\n  "meta": {\n'
            '    "note": "x",\n    "warnings": []\n  }\n}\n'
        )


@st.composite
def valid_records(draw):
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(2, 40))
    steps = draw(arrays(float, n, elements=st.floats(1e-9, 1e-5)))
    times = draw(st.floats(0.0, 1e-3)) + np.cumsum(steps) - steps[0]
    weights = draw(arrays(float, (dim, n), elements=st.floats(1e-3, 1.0)))
    # sigmas at or above the absolute floor, so loading leaves them alone
    sigmas = draw(arrays(float, (dim, n), elements=st.floats(pt.shot_noise_floor(), 0.5)))
    meta = draw(st.fixed_dictionaries({}, optional={
        "note": st.text(max_size=8),
        "warnings": st.lists(st.text(max_size=8), max_size=2),
    }))
    return pt.MeasurementRecord(
        times=times,
        means=weights / weights.sum(axis=0),
        sigmas=sigmas,
        repeats=draw(st.integers(1, 5)),
        meta=meta,
    )


@settings(deadline=None, max_examples=60)
@given(valid_records())
def test_round_trip_property(record):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        pt.save_record(record, first)
        back = pt.load_record(first)
        pt.save_record(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert Path(tmp, "a.meta.json").read_bytes() == Path(tmp, "b.meta.json").read_bytes()
    for name in ("times", "means", "sigmas"):
        np.testing.assert_array_equal(getattr(back, name), getattr(record, name))
    assert back.repeats == record.repeats and back.meta == record.meta


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
SIDECAR_SLOTS = [
    ("dim",),
    ("repeats",),
    ("meta",),
    ("meta", "config"),
    ("meta", "config", "atoms_per_shot"),
    ("meta", "config", "n_samples"),
    ("meta", "config", "sample_interval_s"),
    ("meta", "warnings"),
]


@settings(deadline=None, max_examples=150)
@given(
    slot=st.sampled_from(SIDECAR_SLOTS),
    value=JSON_VALUES,
    zero_sigma=st.booleans(),
    cell=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 4), st.text(max_size=8)),
)
def test_malformed_input_property(slot, value, zero_sigma, cell):
    """Any JSON value in a sidecar field, or any text in a CSV cell, loads
    or raises ParseError/SchemaError; never another exception."""
    rows = [
        ["time_s", "p_1", "p_2", "sigma_1", "sigma_2"],
        ["0.0", "0.5", "0.5", "0.0" if zero_sigma else "0.01", "0.01"],
        ["1e-06", "0.25", "0.75", "0.01", "0.01"],
    ]
    if cell is not None:
        row, col, text = cell
        rows[row][col] = text
    sidecar = {"dim": 2, "repeats": 3, "meta": {"config": {"atoms_per_shot": 1000}, "warnings": []}}
    target = sidecar
    for key in slot[:-1]:
        target = target[key]
    target[slot[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "rec.csv")
        path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        Path(tmp, "rec.meta.json").write_text(json.dumps(sidecar))
        try:
            pt.load_record(path)
        except (pt.ParseError, pt.SchemaError):
            pass


class TestLoader:
    def test_non_increasing_times_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.5,0.5,0.01,0.01\n"
            "2e-06,0.5,0.5,0.01,0.01\n"
            "1e-06,0.5,0.5,0.01,0.01\n"
        )
        with pytest.raises(pt.SchemaError, match="times"):
            pt.load_record(path)

    def test_zero_sigma_floored_with_warning(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.5,0.5,0.0,0.01\n"
            "1e-06,0.5,0.5,0.01,0.01\n"
        )
        record = pt.load_record(path)
        assert record.sigmas[0, 0] == pt.shot_noise_floor()
        assert any("floor" in w for w in record.meta["warnings"])

    def test_sidecar_dim_must_match_the_csv(self, tmp_path):
        # a CSV paired with another record's sidecar must not take its config and state
        path = tmp_path / "rec.csv"
        path.write_text(
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.5,0.5,0.01,0.01\n"
            "1e-06,0.5,0.5,0.01,0.01\n"
        )
        sidecar = tmp_path / "rec.meta.json"
        sidecar.write_text(json.dumps({"dim": 3, "repeats": 3, "meta": {}}))
        with pytest.raises(pt.SchemaError, match="dim"):
            pt.load_record(path)
        sidecar.write_text(json.dumps({"repeats": 3, "meta": {}}))
        assert pt.load_record(path).repeats == 3  # a sidecar without "dim" still loads

    def test_sidecar_n_samples_must_match_the_csv(self, tmp_path, ladder):
        # a 16-point record paired with a 40-point record's sidecar
        def save(name, n_samples, repeats):
            cfg = pt.ExperimentConfig(hamiltonian=ladder, n_samples=n_samples, repeats=repeats)
            pt.save_record(pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg), tmp_path / name)

        save("short.csv", 16, 5)
        save("long.csv", 40, 9)
        assert pt.load_record(tmp_path / "short.csv").repeats == 5
        (tmp_path / "short.meta.json").write_bytes((tmp_path / "long.meta.json").read_bytes())
        with pytest.raises(pt.SchemaError, match="^n_samples: sidecar says 40, the CSV has 16$"):
            pt.load_record(tmp_path / "short.csv")

    def test_sidecar_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        pt.save_record(simple_record(), path)
        sidecar = json.loads((tmp_path / "rec.meta.json").read_text())
        (tmp_path / "rec.meta.json").write_text(json.dumps({**sidecar, "meta": {"anything": [1]}}))
        assert pt.load_record(path).meta == {"anything": [1]}  # meta stays free-form
        (tmp_path / "rec.meta.json").write_text(json.dumps({**sidecar, "repeat": 3}))
        with pytest.raises(pt.SchemaError, match=r"^sidecar\.repeat: unknown key$"):
            pt.load_record(path)

    def test_sidecar_sample_interval_must_match_the_csv(self, tmp_path, ladder):
        path = tmp_path / "rec.csv"
        cfg = pt.ExperimentConfig(hamiltonian=ladder, n_samples=16)
        pt.save_record(pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg), path)
        sidecar = json.loads((tmp_path / "rec.meta.json").read_text())
        sidecar["meta"]["config"]["sample_interval_s"] = 9e-6
        (tmp_path / "rec.meta.json").write_text(json.dumps(sidecar))
        with pytest.raises(pt.SchemaError, match="^sample_interval_s: sidecar says 9e-06"):
            pt.load_record(path)

    @settings(deadline=None, max_examples=40)
    @given(
        interval=st.floats(1e-9, 1e-3),
        n_samples=st.integers(2, 40),
        data=st.data(),
    )
    def test_synthesized_and_truncated_records_load_bit_identical(self, ladder, interval, n_samples, data):
        cfg = pt.ExperimentConfig(hamiltonian=ladder, sample_interval=interval, n_samples=n_samples)
        record = pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg)
        kept = data.draw(st.integers(2, n_samples))
        for rec in (record, pt.truncate_record(record, record.times[kept - 1])):
            with tempfile.TemporaryDirectory() as tmp:
                pt.save_record(rec, Path(tmp, "rec.csv"))
                back = pt.load_record(Path(tmp, "rec.csv"))
            for name in ("times", "means", "sigmas"):
                assert getattr(back, name).tobytes() == getattr(rec, name).tobytes()
            assert back.meta == rec.meta

    def test_truncated_record_reads_back(self, tmp_path, ladder):
        cfg = pt.ExperimentConfig(hamiltonian=ladder, n_samples=16)
        record = pt.synthesize_record(pt.DensityMatrix.basis_state(5, 0), cfg)
        short = pt.truncate_record(record, record.times[7])
        pt.save_record(short, tmp_path / "short.csv")
        back = pt.load_record(tmp_path / "short.csv")
        assert back.n_times == 8 and back.meta["config"]["n_samples"] == 8
        assert back.means.tobytes() == record.means[:, :8].tobytes()
        assert record.meta["config"]["n_samples"] == 16  # the source record keeps its own count

    def test_negative_sigma_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.5,0.5,-0.01,0.01\n"
            "1e-06,0.5,0.5,0.01,0.01\n"
        )
        with pytest.raises(pt.SchemaError, match="sigmas"):
            pt.load_record(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text(
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.5,0.5,0.01,0.01\n"
            "1e-06,oops,0.5,0.01,0.01\n"
        )
        with pytest.raises(pt.ParseError, match="line 3"):
            pt.load_record(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("when,p_1,sigma_1\n0.0,1.0,0.01\n")
        with pytest.raises(pt.ParseError):
            pt.load_record(path)

    def test_oversized_cell(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("time_s,p_1,sigma_1\n" + "1" * 200_000 + ",1.0,0.01\n")
        with pytest.raises(pt.ParseError, match="line"):
            pt.load_record(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "time_s,p_1,p_2,sigma_1,sigma_2\n"
            "0.0,0.5,0.5,0.01\n"
        )
        with pytest.raises(pt.ParseError, match="line 2"):
            pt.load_record(path)


class TestShotNoiseFloor:
    def test_with_atom_counts(self):
        assert pt.shot_noise_floor(5, 80_000) == pytest.approx(
            0.5 / np.sqrt(5 * 80_000), rel=1e-12
        )

    def test_absolute_floor_without_metadata(self):
        assert pt.shot_noise_floor() == 1e-4

    def test_never_below_absolute_floor(self):
        assert pt.shot_noise_floor(10**6, 10**6) == 1e-4


# every finite double, with both signed zeros drawn often
PART_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_matrix_parts_round_trip_bit_for_bit(tmp_path_factory, shape, data):
    matrix = np.empty(shape, dtype=complex)
    matrix.real = data.draw(arrays(float, shape, elements=PART_ENTRIES))
    matrix.imag = data.draw(arrays(float, shape, elements=PART_ENTRIES))
    path = tmp_path_factory.getbasetemp() / "parts.json"
    pt.records.write_json(path, pt.records.matrix_to_parts(matrix))
    back = pt.records.parts_to_matrix(pt.records.read_json(path), "matrix")
    assert back.dtype == matrix.dtype and back.shape == matrix.shape
    assert back.tobytes() == matrix.tobytes()
