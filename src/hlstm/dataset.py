"""Gridded data model, manifest/CSV round-trip and normalization.

The layout of the model inputs built from a dataset (which channels, in what
order) belongs to ``training.prepare_sequences``, not to this module.

A dataset is a rectangular grid of pixels sharing one daily date axis. Each
pixel carries dense forcing series, optional dense model-simulated moisture
(the "lsm" channel), static attributes, and a sparse target with an
observation mask. Datasets are immutable after load/generation by convention;
nothing here mutates a dataset in place.

On disk a dataset is a manifest JSON plus one CSV per pixel, and a sidecar:

    manifest.json   the ``Manifest`` section, read only by ``Config.from_dict``:
                    a malformed one fails the load with DataError naming the
                    file, ``pixels[k]`` and the field
    <pixel>.csv     header: date,target[,lsm][,truth],<forcing columns>
                    an empty target cell means "unobserved"
    series.bin      a cache of the parsed CSVs: the hex SHA-256 of the bytes
                    of manifest.json and every CSV, then per pixel one ``.npy``
                    (n_days, width) float64 record of the columns after the
                    date, the target NaN where the cell is empty

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
Every other cell must be a plain decimal number, as the save writes them:
``float`` would also take surrounding spaces and digit-group underscores.

The CSVs stay authoritative: ``load_dataset`` takes the sidecar's matrices
only when its digest matches the bytes on disk, and parses the CSVs when it is
missing, stale, unreadable, ill-shaped or not finite. Deleting it is always safe.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from .config import Config, Vector
from .errors import DataError, ValidationError

# 17 significant digits make every float64 round-trip exactly
_FMT = "%.17g"
# The characters of a plain decimal number. A cell that float() takes and
# that holds no other character is one; float() also takes spaces,
# digit-group underscores, non-ASCII digits, "inf" and "nan".
_NUMBER_CHARS = b"0123456789eE.+-"
SIDECAR = "series.bin"


def write_json_atomic(path: str, obj):
    """Write ``obj`` as indented JSON to a temp file, then rename it over
    ``path``, so a reader never sees a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def parse_date(s: str, where: str = "") -> dt.date:
    """``s`` as an ISO date; ``where`` prefixes the DataError's message."""
    try:
        return dt.date.fromisoformat(s)
    except ValueError as exc:
        raise DataError(f"{where}bad ISO date {s!r}") from exc


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

    def validate(self, where: str = ""):
        """Check every pixel; each error names ``pixels[k]`` after ``where``.
        Every pixel has an lsm series or none does; truth may be on some only."""
        seen, ids = set(), set()
        for k, px in enumerate(self.pixels):
            try:
                px.validate(self.n_days, len(self.forcing_names), len(self.attribute_names))
                if (px.lsm is None) == self.has_lsm:
                    state = "missing" if px.lsm is None else "present"
                    raise DataError(f"pixel {px.pixel_id}: lsm series {state}, unlike pixels[0]")
                if not (0 <= px.row < self.rows and 0 <= px.col < self.cols):
                    raise DataError(f"pixel {px.pixel_id}: coordinates out of bounds")
                if (px.row, px.col) in seen:
                    raise DataError(f"duplicate pixel coordinates ({px.row}, {px.col})")
                if px.pixel_id in ids:
                    raise DataError(f"duplicate pixel id {px.pixel_id!r}")
            except DataError as exc:
                raise DataError(f"{where}pixels[{k}]: {exc}") from None
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
    """Write one CSV per pixel, manifest.json and, last, the sidecar under
    ``out_dir``. No sidecar when a value is not finite: such data fails its load."""
    os.makedirs(out_dir, exist_ok=True)
    entries, paths, matrices = [], [], []
    days = [day.isoformat() for day in dataset.dates()]
    for px in dataset.pixels:
        series_file = f"{px.pixel_id}.csv"
        entries.append(PixelEntry(px.pixel_id, px.row, px.col, series_file,
                                  [float(a) for a in px.attributes], px.region))
        optional = [name for name in ("lsm", "truth") if getattr(px, name) is not None]
        matrix = np.column_stack([np.where(px.mask, px.target, np.nan),
                                  *[getattr(px, name) for name in optional], px.forcing])
        targets = [_FMT % v if seen else ""
                   for v, seen in zip(px.target.tolist(), px.mask.tolist())]
        template = "%s,%s" + ("," + _FMT) * (matrix.shape[1] - 1) + "\r\n"
        paths.append(os.path.join(out_dir, series_file))
        with open(paths[-1], "w", newline="") as fh:
            csv.writer(fh).writerow(["date", "target", *optional, *dataset.forcing_names])
            fh.write("".join([template % row for row in
                              zip(days, targets, *matrix[:, 1:].T.tolist())]))
        matrices.append(matrix if _finite(matrix, px.mask) else None)
    manifest = Manifest(dataset.rows, dataset.cols, dataset.start_date.isoformat(),
                        dataset.n_days, dataset.forcing_names, dataset.attribute_names,
                        entries)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json_atomic(manifest_path, manifest.to_dict())
    if all(matrix is not None for matrix in matrices):
        with open(manifest_path, "rb") as fh:
            digest, _ = _digest(fh.read(), paths)
        tmp = os.path.join(out_dir, SIDECAR + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(digest)
            for matrix in matrices:
                np.lib.format.write_array(fh, matrix, allow_pickle=False)
        os.replace(tmp, os.path.join(out_dir, SIDECAR))


def load_dataset(manifest_path: str) -> GridDataset:
    """Materialize a GridDataset from a manifest, through the sidecar when its
    digest matches the files and through the CSV parser otherwise; malformed
    input raises DataError naming the first offending file/field/line."""
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.json")
    where = manifest_path
    try:
        with open(manifest_path, "rb") as fh:
            raw = fh.read()
        manifest = Manifest.from_dict(json.loads(raw), where)
    except FileNotFoundError as exc:
        raise DataError(f"{where}: not found") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON ({exc})") from exc
    except ValidationError as exc:
        raise DataError(str(exc)) from exc

    start_date = parse_date(manifest.start_date, f"{where} field 'start_date': ")
    base = os.path.dirname(manifest_path)
    paths = []
    for k, entry in enumerate(manifest.pixels):
        paths.append(os.path.join(base, entry.series_file))
        if not os.path.exists(paths[-1]):
            raise DataError(f"{where}: pixels[{k}]: series file {entry.series_file} "
                            f"missing for pixel {entry.id}")
    digest, headers = _digest(raw, paths)
    columns = [_header_columns(header, path, manifest.forcing_names)
               for header, path in zip(headers, paths)]
    series = _read_sidecar(os.path.join(base, SIDECAR), digest, columns, manifest)
    if series is None:
        days = []  # expected ISO dates, grown as the files need them
        series = [_load_series(path, optional, manifest.forcing_names, start_date, days)
                  for path, optional in zip(paths, columns)]
    pixels = [PixelSeries(pixel_id=entry.id, row=entry.row, col=entry.col,
                          attributes=np.array(entry.attributes, dtype=float),
                          region=entry.region, **arrays)
              for entry, arrays in zip(manifest.pixels, series)]
    ds = GridDataset(rows=manifest.rows, cols=manifest.cols, start_date=start_date,
                     n_days=manifest.n_days, forcing_names=manifest.forcing_names,
                     attribute_names=manifest.attribute_names, pixels=pixels)
    return ds.validate(f"{where}: ")


def _digest(manifest: bytes, paths: list[str]) -> tuple[bytes, list]:
    """The sidecar's first line, the hex SHA-256 of the manifest's bytes and then
    every CSV's; and each CSV's header row, None for an empty file."""
    sha, headers = hashlib.sha256(manifest), []
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        sha.update(raw)
        headers.append(next(csv.reader(io.TextIOWrapper(io.BytesIO(raw), newline="")), None))
    return sha.hexdigest().encode() + b"\n", headers


def _read_sidecar(path: str, digest: bytes, columns: list[list[str]],
                  manifest: Manifest) -> list[dict] | None:
    """Every pixel's series from the sidecar at ``path``; None when it is missing,
    stale or unreadable, or a record is not the C-order float64 (n_days, width)
    matrix the pixel's dense ``columns`` call for or is not finite."""
    try:
        with open(path, "rb") as fh:
            if fh.readline() != digest:
                return None
            series = []
            for optional in columns:
                shape = (manifest.n_days, 1 + len(optional) + len(manifest.forcing_names))
                np.lib.format.read_magic(fh)
                if np.lib.format.read_array_header_1_0(fh) != (shape, False, np.dtype(float)):
                    return None
                matrix = np.fromfile(fh, float, shape[0] * shape[1]).reshape(shape)
                if not _finite(matrix, ~np.isnan(matrix[:, 0])):
                    return None
                series.append(_series(matrix, optional))
            return series
    except (OSError, ValueError):
        return None


def _header_columns(header: list[str] | None, path: str, forcing_names: list[str]) -> list[str]:
    """The dense columns ("lsm", "truth") a CSV's header row (None: empty file) names
    between date,target and the manifest's forcings; DataError if it reads otherwise."""
    if header is None:
        raise DataError(f"{path}: empty file")
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
    return optional


def _finite(matrix: np.ndarray, mask: np.ndarray) -> bool:
    """Whether a pixel's matrix is finite in its observed targets (column 0
    where ``mask``) and in every other column."""
    return bool(np.isfinite(matrix[mask, 0]).all() and np.isfinite(matrix[:, 1:]).all())


def _series(matrix: np.ndarray, optional: list[str]) -> dict:
    """The PixelSeries arrays held in a pixel's matrix, as C-contiguous copies."""
    k = 1 + len(optional)
    target, *dense = [matrix[:, j].copy() for j in range(k)]
    named = dict(zip(optional, dense))
    return dict(forcing=matrix[:, k:].copy(), target=target, mask=~np.isnan(target),
                lsm=named.get("lsm"), truth=named.get("truth"))


def _load_series(path: str, optional: list[str], forcing_names: list[str],
                 start_date: dt.date, days: list[str]) -> dict:
    """Read one pixel CSV, whose header ``_header_columns`` has checked and
    found to hold the dense ``optional`` columns, parsed a column at a time.

    Row t must be dated ``start_date + t`` days; ``days`` caches those dates
    as ISO strings across the files of one dataset. Any failed check
    re-reads the rows in file order to name the first bad line.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]

    n, width = len(rows), 2 + len(optional) + len(forcing_names)
    if set(map(len, rows)) - {width}:
        _check_rows(rows, path, width, start_date)
    days.extend((start_date + dt.timedelta(days=t)).isoformat()
                for t in range(len(days), n))
    columns = list(zip(*rows)) or [()] * width
    if list(columns[0]) != days[:n]:
        _check_rows(rows, path, width, start_date)  # passes for non-canonical ISO
    matrix = np.full((n, width - 1), np.nan)
    try:
        observed = list(map(bool, columns[1]))
        if not all(map(_plain, [compress(columns[1], observed), *columns[2:]])):
            raise ValueError("a cell is not a plain decimal number")
        mask = np.array(observed, dtype=bool)
        matrix[mask, 0] = list(map(float, compress(columns[1], observed)))
        for j, cells in enumerate(columns[2:], 1):
            matrix[:, j] = np.fromiter(map(float, cells), float, n)
    except ValueError:
        _check_rows(rows, path, width, start_date)
        raise
    if not _finite(matrix, mask):
        _check_rows(rows, path, width, start_date)
    return _series(matrix, optional)


def _plain(cells) -> bool:
    """Whether the cells hold only the characters of plain decimal numbers
    (see _NUMBER_CHARS), checked in one pass."""
    return not "".join(cells).encode("ascii", "replace").translate(None, _NUMBER_CHARS)


def _check_rows(rows: list[list[str]], path: str, width: int, start_date: dt.date):
    """Row-by-row checks in file order: raise DataError naming the first bad
    ``file:line`` (line 1 is the header); return if every row is valid."""
    for t, row in enumerate(rows):
        ln = t + 2
        if len(row) != width:
            raise DataError(f"{path}:{ln}: expected {width} columns, got {len(row)}")
        day = parse_date(row[0], f"{path}:{ln}: ")
        want = start_date + dt.timedelta(days=t)
        if day != want:
            raise DataError(f"{path}:{ln}: date {row[0]} is not the expected "
                            f"{want.isoformat()} (start date + {t} days)")
        for cell in row[1:] if row[1] else row[2:]:
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}:{ln}: non-numeric value {cell!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{ln}: non-finite value {cell!r}")
            if not _plain([cell]):
                raise DataError(f"{path}:{ln}: {cell!r} is not a plain decimal number")


@dataclass
class NormalizationStats(Config):
    """Per-channel z-score statistics computed on the training pixels only;
    a model container's "normalization" section.

    ``std`` holds the divisors actually used; zero-variance channels keep a
    divisor of 1 and are listed in ``excluded``.
    """

    names: list[str]
    mean: Vector
    std: Vector
    excluded: list[str]

    def validate(self):
        if not len(self.names) == self.mean.size == self.std.size:
            raise ValidationError(f"fields 'mean' and 'std' hold {self.mean.size} and "
                                  f"{self.std.size} values, not the {len(self.names)} of 'names'")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValidationError("fields 'mean' and 'std' must be finite")
        if not (self.std > 0).all():
            raise ValidationError("field 'std' must be positive")
        return self


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
