import datetime as dt
import json
import os

import numpy as np
import pytest

from hlstm.dataset import (
    GridDataset,
    PixelSeries,
    apply_normalization,
    load_dataset,
    normalize,
    save_dataset,
)
from hlstm.errors import DataError, ValidationError
from hlstm.synthetic import (
    SyntheticConfig,
    _bucket_lockstep,
    add_noise,
    generate_synthetic,
    simulate_bucket,
)
from hlstm.training import Features, prepare_sequences

from oracles import loop_save_series, scalar_bucket


def small_dataset(seed=0, rows=2, cols=2, n_days=30, with_lsm=True):
    rng = np.random.default_rng(seed)
    pixels = []
    for r in range(rows):
        for c in range(cols):
            mask = rng.random(n_days) < 0.4
            target = np.where(mask, rng.uniform(0.1, 0.4, n_days), np.nan)
            pixels.append(PixelSeries(
                pixel_id=f"px_{r}_{c}", row=r, col=c,
                forcing=rng.normal(size=(n_days, 2)),
                attributes=rng.normal(size=3),
                target=target, mask=mask,
                lsm=rng.uniform(0.1, 0.5, n_days) if with_lsm else None,
                region="A" if r == 0 else "B",
            ))
    return GridDataset(rows=rows, cols=cols, start_date=dt.date(2015, 4, 1),
                       n_days=n_days, forcing_names=["precip", "pet"],
                       attribute_names=["a0", "a1", "a2"], pixels=pixels).validate()


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert back.rows == ds.rows and back.n_days == ds.n_days
        assert back.forcing_names == ds.forcing_names
        for a, b in zip(ds.pixels, back.pixels):
            assert a.pixel_id == b.pixel_id and a.region == b.region
            assert np.array_equal(a.mask, b.mask)
            assert np.array_equal(a.forcing, b.forcing)
            assert np.array_equal(a.attributes, b.attributes)
            assert np.array_equal(a.lsm, b.lsm)
            assert np.array_equal(a.target[a.mask], b.target[b.mask])
            assert np.all(np.isnan(b.target[~b.mask]))

    def test_empty_target_column_is_legal(self, tmp_path):
        ds = small_dataset()
        for px in ds.pixels:
            px.mask = np.zeros(ds.n_days, dtype=bool)
            px.target = np.full(ds.n_days, np.nan)
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert not any(px.mask.any() for px in back.pixels)

    def test_missing_series_file_names_pixel(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, str(tmp_path))
        os.remove(tmp_path / "px_1_1.csv")
        with pytest.raises(DataError, match="px_1_1"):
            load_dataset(str(tmp_path))

    def test_malformed_row_reports_file_and_line(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, str(tmp_path))
        path = tmp_path / "px_0_0.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",", ",bogus,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"px_0_0\.csv:4"):
            load_dataset(str(tmp_path))

    def test_length_mismatch_is_structural_error(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["n_days"] = ds.n_days + 5
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="shape|length"):
            load_dataset(str(tmp_path))

    def test_observed_target_outside_unit_interval_rejected(self):
        ds = small_dataset()
        ds.pixels[0].target[ds.pixels[0].mask.argmax()] = 1.7
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            ds.validate()


    def test_save_matches_loop_writer_byte_for_byte(self, tmp_path):
        ds = small_dataset(seed=9)
        ds.forcing_names = ['pr,"x"', "pet"]
        px = ds.pixels[0]
        px.truth = np.random.default_rng(1).uniform(0.1, 0.4, ds.n_days)
        px.forcing[:4, 0] = [-0.0, 5e-324, 1e300, -1e-310]
        px.lsm[:3] = [0.0, 1e300, 5e-324]
        px.mask[:3] = True
        px.target[:3] = [-0.0, 5e-324, 1.0]
        save_dataset(ds, str(tmp_path / "bulk"))
        for p in ds.pixels:
            want = tmp_path / f"{p.pixel_id}.csv"
            loop_save_series(str(want), ds.dates(), ds.forcing_names, p.forcing,
                             p.target, p.mask, lsm=p.lsm, truth=p.truth)
            got = (tmp_path / "bulk" / f"{p.pixel_id}.csv").read_bytes()
            assert got == want.read_bytes()
        assert b'"pr,""x"""' in (tmp_path / "bulk" / "px_0_0.csv").read_bytes()

    def _rewrite_line(self, tmp_path, line_no, fn):
        path = tmp_path / "px_0_0.csv"
        lines = path.read_text().splitlines()
        lines[line_no - 1] = fn(lines[line_no - 1])
        path.write_text("\n".join(lines) + "\n")

    def test_out_of_sequence_date_names_file_and_line(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        self._rewrite_line(tmp_path, 6, lambda ln: "1999-01-01" + ln[10:])
        with pytest.raises(DataError, match=r"px_0_0\.csv:6: date 1999-01-01"):
            load_dataset(str(tmp_path))

    def test_bad_iso_date_names_file_and_line(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        self._rewrite_line(tmp_path, 9, lambda ln: "2000-13-40" + ln[10:])
        with pytest.raises(DataError, match=r"px_0_0\.csv:9: bad ISO date '2000-13-40'"):
            load_dataset(str(tmp_path))

    def test_first_non_numeric_cell_in_file_order_is_named(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        # a bad target on line 9 and a bad last forcing on line 5
        self._rewrite_line(tmp_path, 9, lambda ln: ln.split(",")[0] + ",x," + ln.split(",", 2)[2])
        self._rewrite_line(tmp_path, 5, lambda ln: ln.rsplit(",", 1)[0] + ",oops")
        with pytest.raises(DataError, match=r"px_0_0\.csv:5: non-numeric value 'oops'"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("column,cell", [(1, "nan"), (2, "inf"), (4, "-inf")])
    def test_non_finite_cell_names_file_and_line(self, tmp_path, column, cell):
        # an observed target, the lsm channel and the last forcing column
        save_dataset(small_dataset(), str(tmp_path))

        def put(ln):
            cells = ln.split(",")
            cells[column] = cell
            return ",".join(cells)
        self._rewrite_line(tmp_path, 7, put)
        with pytest.raises(DataError, match=rf"px_0_0\.csv:7: non-finite value '{cell}'"):
            load_dataset(str(tmp_path))

    def _edit_manifest(self, tmp_path, fn):
        save_dataset(small_dataset(), str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        fn(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))

    def test_pixel_entry_not_an_object(self, tmp_path):
        self._edit_manifest(tmp_path, lambda m: m["pixels"].__setitem__(1, 7))
        with pytest.raises(DataError, match=r"pixels\[1\] section must be a JSON object"):
            load_dataset(str(tmp_path))

    def test_attributes_not_a_list_of_numbers(self, tmp_path):
        self._edit_manifest(tmp_path, lambda m: m["pixels"][2].update(attributes="abc"))
        with pytest.raises(DataError, match=r"pixels\[2\] section field 'attributes'"):
            load_dataset(str(tmp_path))


class TestNormalize:
    def test_standardized_feature_untouched(self):
        ds = small_dataset(seed=1)
        n = ds.n_days * len(ds.pixels)
        col = np.random.default_rng(3).normal(size=n)
        col = (col - col.mean()) / col.std()
        for k, px in enumerate(ds.pixels):
            px.forcing[:, 0] = col[k * ds.n_days:(k + 1) * ds.n_days]
        out, stats = normalize(ds, [px.pixel_id for px in ds.pixels])
        assert abs(stats.mean[0]) < 1e-12 and abs(stats.std[0] - 1.0) < 1e-12
        assert np.max(np.abs(out.pixels[0].forcing[:, 0] - ds.pixels[0].forcing[:, 0])) < 1e-12

    def test_constant_feature_excluded(self):
        ds = small_dataset(seed=2)
        for px in ds.pixels:
            px.attributes[1] = 7.0
        _, stats = normalize(ds, [px.pixel_id for px in ds.pixels])
        assert stats.excluded == ["a1"]

    def test_train_only_stats_no_leakage(self):
        ds = small_dataset(seed=3)
        train = [px.pixel_id for px in ds.pixels if px.region == "A"]
        # shift a feature on the held-out pixels only
        for px in ds.pixels:
            if px.region == "B":
                px.forcing[:, 1] += 5.0
        out, _ = normalize(ds, train)
        test_vals = np.concatenate(
            [px.forcing[:, 1] for px in out.pixels if px.region == "B"])
        assert abs(test_vals.mean()) > 1.0  # stats came from train split only

    def test_target_untouched(self):
        ds = small_dataset(seed=4)
        out, _ = normalize(ds, [px.pixel_id for px in ds.pixels])
        for a, b in zip(ds.pixels, out.pixels):
            assert np.array_equal(a.target[a.mask], b.target[b.mask])

    def test_apply_normalization_matches(self):
        ds = small_dataset(seed=5)
        ids = [px.pixel_id for px in ds.pixels]
        out, stats = normalize(ds, ids)
        again = apply_normalization(ds, stats)
        for a, b in zip(out.pixels, again.pixels):
            assert np.array_equal(a.forcing, b.forcing)
            assert np.array_equal(a.attributes, b.attributes)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            normalize(small_dataset(), [])


class TestBuildFeatures:
    """The model-input layout that training.prepare_sequences builds from a
    dataset: forcings, then lsm, then the attributes repeated along time."""

    def test_feature_layout(self):
        ds = small_dataset(seed=6)
        data = prepare_sequences(ds, Features(include_lsm=True, include_attributes=True))
        assert data.feature_names == ["precip", "pet", "lsm", "a0", "a1", "a2"]
        assert data.inputs.shape == (4, ds.n_days, 6)
        for k, px in enumerate(ds.pixels):
            want = np.concatenate([px.forcing, px.lsm[:, None],
                                   np.tile(px.attributes, (ds.n_days, 1))], axis=1)
            assert data.inputs[k].tobytes() == want.tobytes()
            assert data.targets[k].tobytes() == px.target.tobytes()
            assert np.array_equal(data.mask[k], px.mask)
        assert data.pixel_ids == [px.pixel_id for px in ds.pixels]

    def test_forcings_only(self):
        ds = small_dataset(seed=7)
        data = prepare_sequences(ds, include_lsm=False, include_attributes=False)
        assert data.feature_names == ["precip", "pet"]
        assert data.inputs.shape == (4, ds.n_days, 2)
        assert np.array_equal(data.inputs[1], ds.pixels[1].forcing)
        assert data.features == Features(include_lsm=False, include_attributes=False)

    def test_lsm_requested_but_absent(self):
        ds = small_dataset(seed=8, with_lsm=False)
        with pytest.raises(ValidationError, match="no lsm channel"):
            prepare_sequences(ds, include_lsm=True)

    @pytest.mark.parametrize("with_lsm", [True, False])
    def test_unset_lsm_follows_the_dataset(self, with_lsm):
        data = prepare_sequences(small_dataset(seed=9, with_lsm=with_lsm))
        assert data.features == Features(include_lsm=with_lsm, include_attributes=True)
        assert ("lsm" in data.feature_names) == with_lsm
        assert data.subset(["px_1_0"]).features == data.features


class TestAddNoise:
    def test_vanishing_noise(self):
        s = np.linspace(0.1, 0.4, 50)
        out = add_noise(s, "white", 1e-12, seed=0)
        assert np.max(np.abs(out - s)) < 1e-10

    def test_relative_noise_zero_stays_zero(self):
        s = np.zeros(100)
        out = add_noise(s, "relative", 0.07, seed=1)
        assert np.array_equal(out, s)

    def test_relative_noise_std_scales_with_level(self):
        s = np.full(10_000, 0.5)
        out = add_noise(s, "relative", 0.07, seed=2)
        assert abs((out - s).std() - 0.035) <= 0.002

    def test_invalid_param(self):
        with pytest.raises(ValidationError):
            add_noise(np.zeros(5), "white", 0.0, seed=0)
        with pytest.raises(ValidationError):
            add_noise(np.zeros(5), "pink", 0.1, seed=0)


class TestGenerator:
    def test_zero_precip_decays_to_residual(self):
        theta = simulate_bucket(
            precip=np.zeros(400), et_demand=np.full(400, 3.0),
            porosity=0.45, residual=0.1, infiltration=0.5,
            drainage_coef=60.0, drainage_exp=2.5, depth_mm=300.0)
        assert np.all(np.diff(theta) <= 0)
        assert abs(theta[-1] - 0.1) < 1e-6

    def test_lockstep_bucket_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        T, P = 300, 18
        precip = np.where(rng.random((T, P)) < 0.3, rng.exponential(8.0, (T, P)), 0.0)
        precip[:, 0] = 0.0      # dries out: clamps at residual
        precip[:, 1] = 400.0    # floods: clamps at porosity
        pet = rng.uniform(0.5, 6.0, (T, P))
        et_coef = rng.uniform(0.8, 1.2, P)
        porosity = rng.uniform(0.42, 0.48, P)
        residual = rng.uniform(0.08, 0.12, P)
        infiltration = rng.uniform(0.4, 0.6, P)
        k_drain = rng.uniform(40.0, 80.0, P)
        b_drain = rng.uniform(1.5, 3.5, P)
        depth = rng.uniform(250.0, 350.0, P)
        theta0 = 0.5 * (residual + porosity)
        theta = _bucket_lockstep(precip, pet, et_coef, porosity, residual,
                                 infiltration, k_drain, b_drain, depth, theta0)
        for k in range(P):
            want = scalar_bucket(precip[:, k], et_coef[k] * pet[:, k], porosity[k],
                                 residual[k], infiltration[k], k_drain[k],
                                 b_drain[k], depth[k])
            assert theta[:, k].tobytes() == want.tobytes()
        assert np.any(theta[:, 0] == residual[0])
        assert np.any(theta[:, 1] == porosity[1])
        one = simulate_bucket(precip[:, 2], et_coef[2] * pet[:, 2], porosity[2],
                              residual[2], infiltration[2], k_drain[2], b_drain[2],
                              depth[2], theta0=0.3)
        want = scalar_bucket(precip[:, 2], et_coef[2] * pet[:, 2], porosity[2],
                             residual[2], infiltration[2], k_drain[2], b_drain[2],
                             depth[2], theta0=0.3)
        assert one.tobytes() == want.tobytes()

    def test_pixel_streams_do_not_depend_on_grid_size(self):
        opts = dict(years=1, noise_kind="relative", noise_param=0.05,
                    irregular_revisit=True, include_lsm=True, lsm_noise_std=0.01,
                    lsm_bias_from_attr=True, seed=13)
        big = generate_synthetic(SyntheticConfig(rows=4, cols=4, **opts)).pixels[0]
        one = generate_synthetic(SyntheticConfig(rows=1, cols=1, **opts)).pixels[0]
        for name in ("forcing", "attributes", "target", "mask", "lsm", "truth"):
            assert getattr(big, name).tobytes() == getattr(one, name).tobytes(), name

    def test_bucket_bounds_hold(self):
        cfg = SyntheticConfig(rows=3, cols=3, years=2, seed=4)
        ds = generate_synthetic(cfg)
        for px in ds.pixels:
            lo, hi = px.attributes[1], px.attributes[0]  # residual, porosity
            assert np.all(px.truth >= lo - 1e-12)
            assert np.all(px.truth <= hi + 1e-12)

    def test_noise_none_revisit_one_target_equals_truth(self):
        cfg = SyntheticConfig(rows=2, cols=2, years=1, noise_kind="none",
                              revisit_days=1, seed=5)
        ds = generate_synthetic(cfg)
        for px in ds.pixels:
            assert px.mask.all()
            assert np.array_equal(px.target, px.truth)

    def test_white_noise_std_recovered(self):
        cfg = SyntheticConfig(rows=5, cols=5, years=2, noise_kind="white",
                              noise_param=0.04, revisit_days=1, seed=6)
        ds = generate_synthetic(cfg)
        diffs = np.concatenate([px.target - px.truth for px in ds.pixels])
        assert diffs.size >= 10_000
        assert abs(diffs.std() - 0.04) <= 0.002

    def test_noise_not_autocorrelated(self):
        cfg = SyntheticConfig(rows=4, cols=4, years=2, noise_kind="white",
                              noise_param=0.04, revisit_days=1, seed=7)
        ds = generate_synthetic(cfg)
        noise = np.concatenate([px.target - px.truth for px in ds.pixels])
        a, b = noise[:-1], noise[1:]
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    def test_deterministic_given_config(self):
        cfg = SyntheticConfig(rows=2, cols=3, years=1, noise_kind="white",
                              noise_param=0.04, seed=8)
        d1 = generate_synthetic(cfg)
        d2 = generate_synthetic(cfg)
        for a, b in zip(d1.pixels, d2.pixels):
            assert np.array_equal(a.forcing, b.forcing)
            assert np.array_equal(a.truth, b.truth)
            assert np.array_equal(a.target[a.mask], b.target[b.mask])

    def test_revisit_schedule(self):
        cfg = SyntheticConfig(rows=2, cols=2, years=1, revisit_days=3, seed=9)
        ds = generate_synthetic(cfg)
        for px in ds.pixels:
            gaps = np.diff(np.flatnonzero(px.mask))
            assert np.all(gaps == 3)

    def test_regions_and_lsm_bias_ordering(self):
        cfg = SyntheticConfig(rows=4, cols=4, years=1, include_lsm=True,
                              region_layout=(2, 2), lsm_noise_std=0.0, seed=10)
        ds = generate_synthetic(cfg)
        assert ds.region_labels() == ["R00", "R01", "R10", "R11"]
        bias_by_region = {}
        for px in ds.pixels:
            bias = float(np.mean(px.lsm - px.truth))
            bias_by_region.setdefault(px.region, []).append(bias)
        means = [np.mean(bias_by_region[r]) for r in ("R00", "R01", "R10", "R11")]
        assert means == sorted(means)
        assert means[0] < -0.03 and means[-1] > 0.03

    def test_round_trip_through_files(self, tmp_path):
        cfg = SyntheticConfig(rows=2, cols=2, years=1, noise_kind="white",
                              noise_param=0.04, include_lsm=True, seed=11)
        ds = generate_synthetic(cfg)
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        for a, b in zip(ds.pixels, back.pixels):
            assert np.array_equal(a.truth, b.truth)
            assert np.array_equal(a.lsm, b.lsm)
            assert np.array_equal(a.target[a.mask], b.target[b.mask])
