"""Gridded data model, manifest/CSV round-trip and normalization.

The layout of the model inputs built from a dataset (which channels, in what
order) belongs to ``training.prepare_sequences``, not to this module.

A dataset is a rectangular grid of pixels sharing one daily date axis. Each
pixel carries dense forcing series, optional dense model-simulated moisture
(the "lsm" channel), static attributes, and a sparse target with an
observation mask. Datasets are immutable after load/generation by convention;
nothing here mutates a dataset in place.

On disk a dataset is a manifest JSON plus one CSV per pixel:

    manifest.json   the ``Manifest`` section, read only by ``Config.from_dict``:
                    a malformed one fails the load with DataError naming the
                    file, ``pixels[k]`` and the field
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

from .config import Config
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
        seen, ids = set(), set()
        for px in self.pixels:
            px.validate(self.n_days, len(self.forcing_names), len(self.attribute_names))
            if not (0 <= px.row < self.rows and 0 <= px.col < self.cols):
                raise DataError(f"pixel {px.pixel_id}: coordinates out of bounds")
            if (px.row, px.col) in seen:
                raise DataError(f"duplicate pixel coordinates ({px.row}, {px.col})")
            if px.pixel_id in ids:
                raise DataError(f"duplicate pixel id {px.pixel_id!r}")
            seen.add((px.row, px.col))
            ids.add(px.pixel_id)
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


@dataclass
class PixelEntry(Config):
    """One pixel's entry in manifest.json; ``series_file`` is relative to it."""

    id: str
    row: int
    col: int
    series_file: str
    attributes: list[float] = field(default_factory=list)
    region: str | None = None


@dataclass
class Manifest(Config):
    """manifest.json: the grid, the date axis, the channel names and the pixels."""

    rows: int
    cols: int
    start_date: str
    n_days: int
    forcing_names: list[str]
    attribute_names: list[str]
    pixels: list[PixelEntry]


def save_dataset(dataset: GridDataset, out_dir: str):
    """Write manifest.json plus one CSV per pixel under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    days = [day.isoformat() for day in dataset.dates()]
    for px in dataset.pixels:
        series_file = f"{px.pixel_id}.csv"
        entries.append(PixelEntry(px.pixel_id, px.row, px.col, series_file,
                                  [float(a) for a in px.attributes], px.region))
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
    manifest = Manifest(dataset.rows, dataset.cols, dataset.start_date.isoformat(),
                        dataset.n_days, dataset.forcing_names, dataset.attribute_names,
                        entries)
    write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest.to_dict())


def load_dataset(manifest_path: str) -> GridDataset:
    """Materialize a GridDataset from a manifest; malformed input raises
    DataError naming the first offending file/field/line."""
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.json")
    where = manifest_path
    try:
        with open(manifest_path) as fh:
            manifest = Manifest.from_dict(json.load(fh), where)
    except FileNotFoundError as exc:
        raise DataError(f"{where}: not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON ({exc})") from exc
    except ValidationError as exc:
        raise DataError(str(exc)) from exc

    start_date = parse_date(manifest.start_date)
    base = os.path.dirname(manifest_path)
    days = []  # expected ISO dates, grown as the files need them
    pixels = []
    for k, entry in enumerate(manifest.pixels):
        path = os.path.join(base, entry.series_file)
        if not os.path.exists(path):
            raise DataError(f"{where}: pixels[{k}]: series file {entry.series_file} "
                            f"missing for pixel {entry.id}")
        series = _load_series(path, manifest.forcing_names, start_date, days)
        pixels.append(PixelSeries(
            pixel_id=entry.id, row=entry.row, col=entry.col,
            attributes=np.array(entry.attributes, dtype=float), region=entry.region,
            **series))

    ds = GridDataset(rows=manifest.rows, cols=manifest.cols, start_date=start_date,
                     n_days=manifest.n_days, forcing_names=manifest.forcing_names,
                     attribute_names=manifest.attribute_names, pixels=pixels)
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

    names, blocks = _channels(dataset)
    columns = [column for key, sl in blocks for column in np.concatenate(
        [getattr(px, key).reshape(-1, sl.stop - sl.start) for px in train_px]).T]

    mean = np.array([c.mean() for c in columns])
    raw_std = np.array([c.std() for c in columns])
    excluded = [names[j] for j in range(len(names)) if raw_std[j] == 0.0]
    std = np.where(raw_std == 0.0, 1.0, raw_std)
    stats = NormalizationStats(names=names, mean=mean, std=std, excluded=excluded)
    return apply_normalization(dataset, stats), stats


def apply_normalization(dataset: GridDataset, stats: NormalizationStats) -> GridDataset:
    """Apply previously computed statistics to a raw dataset (inference path)."""
    names, blocks = _channels(dataset)
    if names != stats.names:
        raise ValidationError(
            f"stats channels {stats.names} do not match dataset channels {names}")
    return replace(dataset, pixels=[
        replace(px, **{key: (getattr(px, key) - stats.mean[sl]) / stats.std[sl]
                       for key, sl in blocks})
        for px in dataset.pixels])


def _channels(dataset: GridDataset) -> tuple[list[str], list[tuple[str, slice]]]:
    """The z-scored channel names in stats order (the forcings, then lsm when
    the dataset has it, then the attributes), and the slice of them that each
    PixelSeries field holds, one channel per column of the field."""
    names, blocks = [], []
    for key, block in (("forcing", dataset.forcing_names),
                       ("lsm", ["lsm"] if dataset.has_lsm else []),
                       ("attributes", dataset.attribute_names)):
        if block:
            blocks.append((key, slice(len(names), len(names) + len(block))))
            names += block
    return names, blocks
