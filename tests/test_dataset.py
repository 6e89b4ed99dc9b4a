import datetime as dt
import hashlib
import json
import os
import re
import shutil
import time

import numpy as np
import pytest

from hlstm import dataset as dataset_module
from hlstm.dataset import (
    SIDECAR,
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

    @pytest.mark.parametrize("cell", [" 0.5", "0.5 ", "1_0", "\u0663", " "],
                             ids=["lead_space", "trail_space", "underscore", "arabic_digit",
                                  "blank"])
    @pytest.mark.parametrize("column", [1, 2, 4], ids=["target", "lsm", "forcing"])
    @pytest.mark.parametrize("sidecar", ["stale", "none"])
    def test_cell_float_takes_but_no_writer_emits_names_file_and_line(
            self, tmp_path, column, cell, sidecar):
        # float() reads each of these cells (but the blank one); the save writes none.
        save_dataset(small_dataset(), str(tmp_path))
        if sidecar == "none":
            os.remove(tmp_path / SIDECAR)

        def put(ln):
            cells = ln.split(",")
            cells[column] = cell
            return ",".join(cells)
        self._rewrite_line(tmp_path, 9, put)
        self._rewrite_line(tmp_path, 12, put)
        message = (r"non-numeric value ' '" if cell == " "
                   else rf"'{cell}' is not a plain decimal number")
        with pytest.raises(DataError, match=rf"px_0_0\.csv:9: {message}"):
            load_dataset(str(tmp_path))

    def test_plain_number_forms_and_empty_targets_still_load(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        os.remove(tmp_path / SIDECAR)
        forms = {3: ".5", 4: "5.", 5: "+1", 6: "-0", 7: "1E-3", 8: "2.5e+1"}
        for line, cell in forms.items():
            self._rewrite_line(tmp_path, line, lambda ln, cell=cell: ln.rsplit(",", 1)[0] + "," + cell)
        self._rewrite_line(tmp_path, 9, lambda ln: ",".join(ln.split(",")[:1] + [""] + ln.split(",")[2:]))
        path = tmp_path / "px_0_0.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        px = load_dataset(str(tmp_path)).pixels[0]
        assert [px.forcing[line - 2, -1] for line in forms] == [float(c) for c in forms.values()]
        assert not px.mask[7]

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


SERIES = ("forcing", "target", "mask", "lsm", "truth", "attributes")


def assert_same_bits(a, b):
    """Same pixels with bit-identical arrays of the same dtype, shape and layout."""
    assert [px.pixel_id for px in a.pixels] == [px.pixel_id for px in b.pixels]
    for pa, pb in zip(a.pixels, b.pixels):
        assert (pa.row, pa.col, pa.region) == (pb.row, pb.col, pb.region)
        for name in SERIES:
            x, y = getattr(pa, name), getattr(pb, name)
            if x is None or y is None:
                assert x is None and y is None, name
                continue
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.flags.c_contiguous and y.flags.c_contiguous, name
            assert x.tobytes() == y.tobytes(), name


@pytest.fixture()
def csv_parses(monkeypatch):
    """The CSV files that load_dataset parses; empty when it used the sidecar."""
    parsed = []
    parse = dataset_module._load_series

    def spy(path, *args):
        parsed.append(os.path.basename(path))
        return parse(path, *args)
    monkeypatch.setattr(dataset_module, "_load_series", spy)
    return parsed


def _no_lsm(ds):
    for px in ds.pixels:
        px.lsm = None
    return ds


def _truth_on_some(ds):
    for px in ds.pixels[::2]:
        px.truth = px.lsm + 0.01
    return ds


def _empty_targets(ds):
    for px in ds.pixels:
        px.mask = np.zeros(ds.n_days, dtype=bool)
        px.target = np.full(ds.n_days, np.nan)
    return ds


def _extreme_cells(ds):
    ds.forcing_names = ['pr,"x"', "pet"]
    px = ds.pixels[0]
    px.truth = np.random.default_rng(1).uniform(0.1, 0.4, ds.n_days)
    px.forcing[:4, 0] = [-0.0, 5e-324, 1e300, -1e-310]
    px.lsm[:3] = [0.0, 1e300, 5e-324]
    px.mask[:3] = True
    px.target[:3] = [-0.0, 5e-324, 1.0]
    return ds


def _duplicate_position(ds):
    ds.pixels[3].row, ds.pixels[3].col = 0, 1


def _out_of_bounds(ds):
    ds.pixels[2].col = 7


def _attribute_count(ds):
    ds.pixels[1].attributes = ds.pixels[1].attributes[:2]


def _lsm_missing_later(ds):
    ds.pixels[2].lsm = None


def _lsm_missing_first(ds):
    ds.pixels[0].lsm = None


class TestSidecar:
    """The binary sidecar beside the CSVs: a verified cache of the parsed
    series, taken only when its digest matches the manifest and CSV bytes."""

    @pytest.mark.parametrize("edit", [lambda ds: ds, _no_lsm, _truth_on_some,
                                      _empty_targets, _extreme_cells],
                             ids=["lsm", "no_lsm", "truth_on_some", "empty_target",
                                  "extreme_cells"])
    def test_sidecar_and_csv_loads_are_bit_identical(self, tmp_path, csv_parses, edit):
        ds = edit(small_dataset(seed=9))
        save_dataset(ds, str(tmp_path))
        via_sidecar = load_dataset(str(tmp_path))
        assert csv_parses == []
        os.remove(tmp_path / SIDECAR)
        via_csv = load_dataset(str(tmp_path))
        assert len(csv_parses) == len(ds.pixels)
        assert_same_bits(via_sidecar, via_csv)
        assert via_sidecar.forcing_names == via_csv.forcing_names == ds.forcing_names
        for px, back in zip(ds.pixels, via_sidecar.pixels):
            assert back.forcing.tobytes() == px.forcing.tobytes()
            assert np.array_equal(back.mask, px.mask)

    def test_layout_is_digest_line_then_one_npy_record_per_pixel(self, tmp_path):
        ds = small_dataset(seed=2)
        save_dataset(ds, str(tmp_path))
        sha = hashlib.sha256((tmp_path / "manifest.json").read_bytes())
        for px in ds.pixels:
            sha.update((tmp_path / f"{px.pixel_id}.csv").read_bytes())
        with open(tmp_path / SIDECAR, "rb") as fh:
            assert fh.readline() == sha.hexdigest().encode() + b"\n"
            for px in ds.pixels:
                record = np.load(fh, allow_pickle=False)
                want = np.column_stack([np.where(px.mask, px.target, np.nan),
                                        px.lsm, px.forcing])
                assert record.dtype == float and record.tobytes() == want.tobytes()
            assert fh.read() == b""
        assert not (tmp_path / (SIDECAR + ".tmp")).exists()

    def test_sidecar_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        ds = small_dataset(seed=3)
        localtime = time.localtime
        for tag, now in (("a", 1e9), ("b", 2e9 + 0.5)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            monkeypatch.setattr(time, "localtime", lambda secs=None, now=now: localtime(now))
            save_dataset(ds, str(tmp_path / tag))
        assert (tmp_path / "a" / SIDECAR).read_bytes() == (tmp_path / "b" / SIDECAR).read_bytes()

    def test_edited_csv_cell_forces_csv_path(self, tmp_path, csv_parses):
        save_dataset(small_dataset(), str(tmp_path))
        path = tmp_path / "px_0_1.csv"
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",0.25"
        path.write_text("\r\n".join(lines) + "\r\n")
        back = load_dataset(str(tmp_path))
        assert len(csv_parses) == 4
        assert back.pixels[1].forcing[3, -1] == 0.25

    def test_edited_manifest_field_forces_csv_path(self, tmp_path, csv_parses):
        save_dataset(small_dataset(), str(tmp_path))
        path = tmp_path / "manifest.json"
        text = path.read_text()
        assert text.count('"region": "B"') == 2
        path.write_text(text.replace('"region": "B"', '"region": "Z"', 1))
        back = load_dataset(str(tmp_path))
        assert len(csv_parses) == 4
        assert [px.region for px in back.pixels] == ["A", "A", "Z", "B"]

    @staticmethod
    def _rewrite_records(path, edit):
        """Rewrite the sidecar's records through ``edit``, keeping its digest."""
        with open(path, "rb") as fh:
            digest = fh.readline()
            records = [np.load(fh) for _ in range(4)]
        edit(records)
        with open(path, "wb") as fh:
            fh.write(digest)
            for record in records:
                np.save(fh, record)

    @pytest.mark.parametrize("damage", [
        lambda p: os.remove(p),
        lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        lambda p: p.write_bytes(p.read_bytes().split(b"\n", 1)[0] + b"\n"),
        lambda p: p.write_bytes(np.random.default_rng(0).bytes(4096)),
        lambda p: p.write_bytes(p.read_bytes().split(b"\n", 1)[0] + b"\n"
                                + np.random.default_rng(0).bytes(4096)),
        lambda p: TestSidecar._rewrite_records(
            p, lambda r: r.__setitem__(2, r[2][:, :-1].copy())),
        lambda p: TestSidecar._rewrite_records(
            p, lambda r: r.__setitem__(1, np.asfortranarray(r[1]))),
        lambda p: TestSidecar._rewrite_records(  # finite, so only its shape tells
            p, lambda r: r.__setitem__(3, np.nan_to_num(r[3], nan=0.5).T.copy())),
        lambda p: TestSidecar._rewrite_records(
            p, lambda r: r.__setitem__(3, r[3].astype(np.float32))),
        lambda p: TestSidecar._rewrite_records(p, lambda r: r[1].__setitem__((5, 3), np.inf)),
        lambda p: TestSidecar._rewrite_records(p, lambda r: r[0].__setitem__((0, 0), -np.inf)),
    ], ids=["deleted", "truncated", "digest_only", "garbage", "garbage_records",
            "too_narrow", "fortran_order", "transposed", "float32", "inf_forcing", "inf_target"])
    def test_damaged_sidecar_forces_csv_path(self, tmp_path, csv_parses, damage):
        ds = small_dataset(seed=4)
        save_dataset(ds, str(tmp_path / "ref"))
        os.remove(tmp_path / "ref" / SIDECAR)
        want = load_dataset(str(tmp_path / "ref"))
        save_dataset(ds, str(tmp_path / "data"))
        del csv_parses[:]
        damage(tmp_path / "data" / SIDECAR)
        got = load_dataset(str(tmp_path / "data"))
        assert len(csv_parses) == 4
        assert_same_bits(got, want)

    @pytest.mark.parametrize("line,edit,needle", [
        (4, lambda ln: ln.replace(",", ",bogus,", 1), r"px_0_0\.csv:4: expected"),
        (6, lambda ln: "1999-01-01" + ln[10:], r"px_0_0\.csv:6: date 1999-01-01"),
        (7, lambda ln: ln.rsplit(",", 1)[0] + ",inf", r"px_0_0\.csv:7: non-finite value 'inf'"),
        (1, lambda ln: ln.replace("lsm", "lsn"), r"px_0_0\.csv: forcing columns"),
    ], ids=["extra_cell", "date", "non_finite", "header"])
    def test_errors_are_the_same_with_a_stale_sidecar(self, tmp_path, line, edit, needle):
        messages = []
        for tag in ("stale", "none"):
            save_dataset(small_dataset(), str(tmp_path / tag))
            path = tmp_path / tag / "px_0_0.csv"
            lines = path.read_text().splitlines()
            lines[line - 1] = edit(lines[line - 1])
            path.write_text("\n".join(lines) + "\n")
            if tag == "none":
                os.remove(tmp_path / tag / SIDECAR)
            with pytest.raises(DataError, match=needle) as err:
                load_dataset(str(tmp_path / tag))
            messages.append(str(err.value).replace(str(tmp_path / tag), "<dir>"))
        assert messages[0] == messages[1]

    def test_non_finite_values_write_no_sidecar(self, tmp_path):
        ds = small_dataset()
        ds.pixels[1].target[ds.pixels[1].mask.argmax()] = np.nan
        save_dataset(ds, str(tmp_path))
        assert not (tmp_path / SIDECAR).exists()
        with pytest.raises(DataError, match=r"px_0_1\.csv:\d+: non-finite value 'nan'"):
            load_dataset(str(tmp_path))

    def test_load_never_writes(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        os.remove(tmp_path / SIDECAR)
        before = sorted(os.listdir(tmp_path))
        load_dataset(str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == before

    def test_copied_directory_keeps_its_sidecar_valid(self, tmp_path, csv_parses):
        save_dataset(small_dataset(), str(tmp_path / "a"))
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        load_dataset(str(tmp_path / "b" / "manifest.json"))
        assert csv_parses == []


class TestManifestErrorsNamePlace:
    """Errors found after the files are read name the manifest, ``pixels[k]``
    and the field, on the sidecar and on the CSV path alike."""

    def test_bad_start_date_names_manifest_and_field(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text().replace('"2015-04-01"', '"x"'))
        with pytest.raises(DataError, match=r"manifest\.json field 'start_date': "
                                            r"bad ISO date 'x'"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "csv"])
    @pytest.mark.parametrize("edit,needle", [
        (_duplicate_position, r"pixels\[3\]: duplicate pixel coordinates \(0, 1\)"),
        (_out_of_bounds, r"pixels\[2\]: pixel px_1_0: coordinates out of bounds"),
        (_attribute_count, r"pixels\[1\]: pixel px_0_1: 2 attributes, expected 3"),
        (_lsm_missing_later, r"pixels\[2\]: pixel px_1_0: lsm series missing, unlike"),
        (_lsm_missing_first, r"pixels\[1\]: pixel px_0_1: lsm series present, unlike"),
    ], ids=["duplicate_position", "out_of_bounds", "attribute_count", "lsm_missing_later",
            "lsm_missing_first"])
    def test_dataset_errors_name_manifest_and_entry(self, tmp_path, csv_parses,
                                                    sidecar, edit, needle):
        ds = small_dataset()
        edit(ds)
        save_dataset(ds, str(tmp_path))
        if not sidecar:
            os.remove(tmp_path / SIDECAR)
        manifest = str(tmp_path / "manifest.json")
        with pytest.raises(DataError, match=f"^{re.escape(manifest)}: {needle}"):
            load_dataset(str(tmp_path))
        assert (csv_parses == []) == sidecar

    def test_duplicate_id_names_manifest_and_entry(self, tmp_path):
        save_dataset(small_dataset(), str(tmp_path))
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["pixels"][2]["id"] = "px_0_0"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"manifest\.json: pixels\[2\]: "
                                            r"duplicate pixel id 'px_0_0'"):
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
        one = lambda v: np.array([v])  # noqa: E731
        theta = _bucket_lockstep(
            np.zeros((400, 1)), np.full((400, 1), 3.0), et_coef=one(1.0),
            porosity=one(0.45), residual=one(0.1), infiltration=one(0.5),
            drainage_coef=one(60.0), drainage_exp=one(2.5), depth_mm=one(300.0),
            theta0=one(0.275))[:, 0]
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
        c = slice(2, 3)   # one pixel alone, from another initial state
        one = _bucket_lockstep(precip[:, c], pet[:, c], et_coef[c], porosity[c],
                               residual[c], infiltration[c], k_drain[c], b_drain[c],
                               depth[c], np.array([0.3]))[:, 0]
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
