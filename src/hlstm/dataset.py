"""Gridded data model, manifest/CSV round-trip and normalization.

The layout of the model inputs built from a dataset (which channels, in what
order) belongs to ``training.prepare_sequences``, not to this module.

A dataset is a rectangular grid of pixels sharing one daily date axis. Each
pixel carries dense forcing series, optional dense model-simulated moisture
(the "lsm" channel), static attributes, and a sparse target with an
observation mask. Datasets are immutable after load/generation by convention;
nothing here mutates a dataset in place.

On disk a dataset is a manifest JSON plus one CSV per pixel:

    manifest.json   {rows, cols, start_date, n_days, forcing_names[],
                     attribute_names[], pixels[]: {id, row, col, series_file,
                     attributes[], region}}
    <pixel>.csv     header: date,target[,lsm][,truth],<forcing columns>
                    an empty target cell means "unobserved"

Numbers are serialized with 17 significant digits so round-trips are
lossless. The optional dense ``truth`` column stores the clean series behind
a noisy synthetic target; real datasets simply omit it. Row t of a CSV is
dated ``start_date + t`` days.

The CSV body is formatted and parsed in bulk: the save formats each row with
one ``%``-template and writes the file body at once; the load transposes the
rows read by ``csv.reader`` and parses each column in one pass. The checks
run on the whole file, and when one fails the rows are re-read in file order
so the error names the first bad line. A cell that parses to NaN or inf
fails the load as well: an empty target cell is the only missing value.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from .errors import DataError, ValidationError

# 17 significant digits make every float64 round-trip exactly
_FMT = "%.17g"


def write_json_atomic(path: str, obj):
    """Write ``obj`` as indented JSON to a temp file, then rename it over
    ``path``, so a reader never sees a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def parse_date(s: str) -> dt.date:
    try:
        return dt.date.fromisoformat(s)
    except ValueError as exc:
        raise DataError(f"bad ISO date {s!r}") from exc


@dataclass
class PixelSeries:
    """One grid cell: series data, static attributes and observation mask."""

    pixel_id: str
    row: int
    col: int
    forcing: np.ndarray            # (T, n_forcings)
    attributes: np.ndarray         # (n_attributes,)
    target: np.ndarray             # (T,), NaN where unobserved
    mask: np.ndarray               # (T,) bool
    lsm: np.ndarray | None = None  # (T,) dense model-simulated moisture
    truth: np.ndarray | None = None  # (T,) clean series behind a noisy target
    region: str | None = None

    def validate(self, n_days: int, n_forcings: int, n_attributes: int):
        if self.forcing.shape != (n_days, n_forcings):
            raise DataError(
                f"pixel {self.pixel_id}: forcing shape {self.forcing.shape}, "
                f"expected {(n_days, n_forcings)}")
        for name, arr in (("target", self.target), ("mask", self.mask)):
            if arr.shape != (n_days,):
                raise DataError(f"pixel {self.pixel_id}: {name} length "
                                f"{arr.shape[0]} != {n_days}")
        for name, arr in (("lsm", self.lsm), ("truth", self.truth)):
            if arr is not None and arr.shape != (n_days,):
                raise DataError(f"pixel {self.pixel_id}: {name} length "
                                f"{arr.shape[0]} != {n_days}")
        if self.attributes.shape != (n_attributes,):
            raise DataError(f"pixel {self.pixel_id}: {len(self.attributes)} "
                            f"attributes, expected {n_attributes}")
        if not np.all(np.isfinite(self.attributes)):
            raise DataError(f"pixel {self.pixel_id}: non-finite attribute")
        observed = self.target[self.mask]
        if observed.size and (np.any(observed < 0.0) or np.any(observed > 1.0)):
            raise DataError(
                f"pixel {self.pixel_id}: observed target outside [0, 1]")
        return self


@dataclass
class GridDataset:
    rows: int
    cols: int
    start_date: dt.date
    n_days: int
    forcing_names: list[str]
    attribute_names: list[str]
    pixels: list[PixelSeries] = field(default_factory=list)

    def validate(self):
        seen = set()
        for px in self.pixels:
            px.validate(self.n_days, len(self.forcing_names), len(self.attribute_names))
            if not (0 <= px.row < self.rows and 0 <= px.col < self.cols):
                raise DataError(f"pixel {px.pixel_id}: coordinates out of bounds")
            if (px.row, px.col) in seen:
                raise DataError(f"duplicate pixel coordinates ({px.row}, {px.col})")
            seen.add((px.row, px.col))
        return self

    def dates(self) -> list[dt.date]:
        return [self.start_date + dt.timedelta(days=i) for i in range(self.n_days)]

    def date_index(self, d: dt.date) -> int:
        idx = (d - self.start_date).days
        if not (0 <= idx < self.n_days):
            raise ValidationError(f"date {d.isoformat()} outside the dataset range")
        return idx

    @property
    def has_lsm(self) -> bool:
        return bool(self.pixels) and self.pixels[0].lsm is not None

    def region_labels(self) -> list[str]:
        return sorted({px.region for px in self.pixels if px.region is not None})


def save_dataset(dataset: GridDataset, out_dir: str):
    """Write manifest.json plus one CSV per pixel under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "rows": dataset.rows,
        "cols": dataset.cols,
        "start_date": dataset.start_date.isoformat(),
        "n_days": dataset.n_days,
        "forcing_names": dataset.forcing_names,
        "attribute_names": dataset.attribute_names,
        "pixels": [],
    }
    days = [day.isoformat() for day in dataset.dates()]
    for px in dataset.pixels:
        series_file = f"{px.pixel_id}.csv"
        manifest["pixels"].append({
            "id": px.pixel_id, "row": px.row, "col": px.col,
            "series_file": series_file,
            "attributes": [float(a) for a in px.attributes],
            "region": px.region,
        })
        header = ["date", "target"]
        dense = []
        for name in ("lsm", "truth"):
            series = getattr(px, name)
            if series is not None:
                header.append(name)
                dense.append(series.tolist())
        header.extend(dataset.forcing_names)
        dense.extend(px.forcing.T.tolist())
        targets = [_FMT % v if seen else ""
                   for v, seen in zip(px.target.tolist(), px.mask.tolist())]
        template = "%s,%s" + ("," + _FMT) * len(dense) + "\r\n"
        path = os.path.join(out_dir, series_file)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.write("".join([template % row for row in zip(days, targets, *dense)]))
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)


def _manifest_field(manifest: dict, key: str, kind, where: str):
    if key not in manifest:
        raise DataError(f"{where}: missing field {key!r}")
    value = manifest[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise DataError(f"{where}: field {key!r} must be an integer")
    if kind is list and not isinstance(value, list):
        raise DataError(f"{where}: field {key!r} must be a list")
    if kind is str and not isinstance(value, str):
        raise DataError(f"{where}: field {key!r} must be a string")
    return value


def load_dataset(manifest_path: str) -> GridDataset:
    """Materialize a GridDataset from a manifest; malformed input raises
    DataError naming the first offending file/field/line."""
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.json")
    where = manifest_path
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"{where}: not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{where}: manifest must be a JSON object")

    rows = _manifest_field(manifest, "rows", int, where)
    cols = _manifest_field(manifest, "cols", int, where)
    n_days = _manifest_field(manifest, "n_days", int, where)
    start_date = parse_date(_manifest_field(manifest, "start_date", str, where))
    forcing_names = _manifest_field(manifest, "forcing_names", list, where)
    attribute_names = _manifest_field(manifest, "attribute_names", list, where)
    pixel_entries = _manifest_field(manifest, "pixels", list, where)

    base = os.path.dirname(manifest_path)
    days = []  # expected ISO dates, grown as the files need them
    pixels = []
    for k, entry in enumerate(pixel_entries):
        pwhere = f"{where}: pixels[{k}]"
        if not isinstance(entry, dict):
            raise DataError(f"{pwhere}: must be an object")
        pid = str(_manifest_field(entry, "id", str, pwhere))
        series_file = _manifest_field(entry, "series_file", str, pwhere)
        try:
            attributes = np.asarray(entry.get("attributes", []), dtype=float)
        except (TypeError, ValueError):
            attributes = None
        if attributes is None or attributes.ndim != 1:
            raise DataError(f"{pwhere}: field 'attributes' must be a list of numbers")
        path = os.path.join(base, series_file)
        if not os.path.exists(path):
            raise DataError(f"{pwhere}: series file {series_file} missing "
                            f"for pixel {pid}")
        series = _load_series(path, forcing_names, start_date, days)
        pixels.append(PixelSeries(
            pixel_id=pid,
            row=_manifest_field(entry, "row", int, pwhere),
            col=_manifest_field(entry, "col", int, pwhere),
            attributes=attributes, region=entry.get("region"), **series))

    ds = GridDataset(rows=rows, cols=cols, start_date=start_date, n_days=n_days,
                     forcing_names=list(forcing_names),
                     attribute_names=list(attribute_names), pixels=pixels)
    return ds.validate()


def _load_series(path: str, forcing_names: list[str], start_date: dt.date,
                 days: list[str]) -> dict:
    """Read one pixel CSV into its series arrays, parsed a column at a time.

    Row t must be dated ``start_date + t`` days; ``days`` caches those dates
    as ISO strings across the files of one dataset. Any failed check
    re-reads the rows in file order to name the first bad line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header[:2] != ["date", "target"]:
            raise DataError(f"{path}: header must start with date,target")
        optional = []
        idx = 2
        for name in ("lsm", "truth"):
            if idx < len(header) and header[idx] == name:
                optional.append(name)
                idx += 1
        if header[idx:] != list(forcing_names):
            raise DataError(f"{path}: forcing columns {header[idx:]} do not "
                            f"match manifest order {list(forcing_names)}")
        rows = list(reader)

    n, width = len(rows), idx + len(forcing_names)
    if set(map(len, rows)) - {width}:
        _check_rows(rows, path, width, start_date)
    days.extend((start_date + dt.timedelta(days=t)).isoformat()
                for t in range(len(days), n))
    columns = list(zip(*rows)) or [()] * width
    if list(columns[0]) != days[:n]:
        _check_rows(rows, path, width, start_date)  # passes for non-canonical ISO
    try:
        observed = list(map(bool, map(str.strip, columns[1])))
        mask = np.array(observed, dtype=bool)
        target = np.full(n, np.nan)
        target[mask] = list(map(float, compress(columns[1], observed)))
        dense = [np.fromiter(map(float, cells), float, n) for cells in columns[2:]]
    except ValueError:
        _check_rows(rows, path, width, start_date)
        raise
    if not all(np.isfinite(column).all() for column in (target[mask], *dense)):
        _check_rows(rows, path, width, start_date)
    dense = iter(dense)
    lsm = next(dense) if "lsm" in optional else None
    truth = next(dense) if "truth" in optional else None
    forcing = np.empty((n, len(forcing_names)))
    for j, column in enumerate(dense):
        forcing[:, j] = column
    return dict(forcing=forcing, target=target, mask=mask, lsm=lsm, truth=truth)


def _check_rows(rows: list[list[str]], path: str, width: int, start_date: dt.date):
    """Row-by-row checks in file order: raise DataError naming the first bad
    ``file:line`` (line 1 is the header); return if every row is valid."""
    for t, row in enumerate(rows):
        ln = t + 2
        if len(row) != width:
            raise DataError(f"{path}:{ln}: expected {width} columns, got {len(row)}")
        try:
            day = parse_date(row[0])
        except DataError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from None
        want = start_date + dt.timedelta(days=t)
        if day != want:
            raise DataError(f"{path}:{ln}: date {row[0]} is not the expected "
                            f"{want.isoformat()} (start date + {t} days)")
        target = row[1].strip()
        for cell in ([target] if target else []) + row[2:]:
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}:{ln}: non-numeric value {cell!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{ln}: non-finite value {cell!r}")


@dataclass
class NormalizationStats:
    """Per-channel z-score statistics computed on the training pixels only.

    ``std`` holds the divisors actually used; zero-variance channels keep a
    divisor of 1 and are listed in ``excluded``.
    """

    names: list[str]
    mean: np.ndarray
    std: np.ndarray
    excluded: list[str]

    def to_dict(self) -> dict:
        return {"names": list(self.names), "mean": [float(v) for v in self.mean],
                "std": [float(v) for v in self.std], "excluded": list(self.excluded)}


def normalize(dataset: GridDataset, train_pixel_ids) -> tuple[GridDataset, NormalizationStats]:
    """Z-score every forcing channel, the lsm channel and every attribute
    using statistics from the training pixels only. The target (and truth)
    stay in physical units.
    """
    train_ids = list(train_pixel_ids)
    if not train_ids:
        raise ValidationError("training pixel set is empty")
    id_set = set(train_ids)
    train_px = [px for px in dataset.pixels if px.pixel_id in id_set]
    if len(train_px) != len(id_set):
        missing = id_set - {px.pixel_id for px in train_px}
        raise ValidationError(f"unknown training pixels: {sorted(missing)}")

    names = list(dataset.forcing_names)
    series_stack = np.concatenate([px.forcing for px in train_px], axis=0)
    columns = [series_stack[:, j] for j in range(series_stack.shape[1])]
    if dataset.has_lsm:
        names.append("lsm")
        columns.append(np.concatenate([px.lsm for px in train_px]))
    names.extend(dataset.attribute_names)
    attr_stack = np.vstack([px.attributes for px in train_px])
    columns.extend(attr_stack[:, j] for j in range(attr_stack.shape[1]))

    mean = np.array([c.mean() for c in columns])
    raw_std = np.array([c.std() for c in columns])
    excluded = [names[j] for j in range(len(names)) if raw_std[j] == 0.0]
    std = np.where(raw_std == 0.0, 1.0, raw_std)
    stats = NormalizationStats(names=names, mean=mean, std=std, excluded=excluded)
    return apply_normalization(dataset, stats), stats


def apply_normalization(dataset: GridDataset, stats: NormalizationStats) -> GridDataset:
    """Apply previously computed statistics to a raw dataset (inference path)."""
    nf = len(dataset.forcing_names)
    expect = list(dataset.forcing_names) + (["lsm"] if dataset.has_lsm else []) \
        + list(dataset.attribute_names)
    if expect != stats.names:
        raise ValidationError(
            f"stats channels {stats.names} do not match dataset channels {expect}")
    new_pixels = []
    for px in dataset.pixels:
        forcing = (px.forcing - stats.mean[:nf]) / stats.std[:nf]
        k = nf
        lsm = px.lsm
        if dataset.has_lsm:
            lsm = (px.lsm - stats.mean[k]) / stats.std[k]
            k += 1
        attrs = (px.attributes - stats.mean[k:]) / stats.std[k:]
        new_pixels.append(replace(px, forcing=forcing, lsm=lsm, attributes=attrs))
    return replace(dataset, pixels=new_pixels)
