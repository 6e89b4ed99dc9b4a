"""A small LSTM container pinned on disk, and the data it was trained on.

``tests/data/golden_lstm.json`` is an ``hlstm-v1`` container (input 3,
hidden 4, five epochs) and ``tests/data/golden_lstm_predictions.json`` holds
its predictions on :func:`golden_dataset` over :func:`golden_split`. Both
were written by the version of hlstm that still stored the LSTM as 14
per-gate arrays, so the tests that read them pin the container format and
the prediction path across changes to the weight storage. The dataset is
built from exact binary fractions, so it does not depend on any generator.

Rewrite the fixture (only on purpose) with ``PYTHONPATH=src python tests/golden.py``.
"""

from __future__ import annotations

import datetime as dt
import json
import os

import numpy as np

from hlstm.dataset import GridDataset, PixelSeries, normalize
from hlstm.experiments import Split, SplitSpec
from hlstm.lstm import DropoutSpec
from hlstm.modelio import load_model, lstm_payload, predict_container, save_model
from hlstm.training import TrainingConfig, prepare_sequences, train_lstm

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CONTAINER = os.path.join(DATA_DIR, "golden_lstm.json")
PREDICTIONS = os.path.join(DATA_DIR, "golden_lstm_predictions.json")
N_DAYS = 64
CONFIG = TrainingConfig(hidden_size=4, unroll_length=16, batch_size=4, epochs=5,
                        learning_rate=0.01, dropout=DropoutSpec("recurrent_constant", 0.25),
                        seed=3)


def golden_dataset() -> GridDataset:
    """Two pixels, three forcings, no lsm and no attributes; every value is a
    multiple of 1/32 and every other day is observed."""
    t = np.arange(N_DAYS)
    pixels = []
    for col in range(2):
        forcing = np.column_stack([((t * (j + 3) + col * 5) % 17) / 16.0 - 0.5
                                   for j in range(3)])
        target = 0.25 + ((t * 5 + col) % 7) / 32.0
        pixels.append(PixelSeries(pixel_id=f"px_0_{col}", row=0, col=col,
                                  forcing=forcing, attributes=np.zeros(0),
                                  target=target, mask=t % 2 == col))
    return GridDataset(rows=1, cols=2, start_date=dt.date(2000, 1, 1), n_days=N_DAYS,
                       forcing_names=["precip", "pet", "temp"], attribute_names=[],
                       pixels=pixels).validate()


def golden_split() -> Split:
    pixels = ["px_0_0", "px_0_1"]
    return Split(train_pixels=pixels, test_pixels=list(pixels),
                 train_window=(0, 48), test_window=(48, N_DAYS),
                 spec=SplitSpec("temporal", ("2000-01-01", "2000-02-17"),
                                ("2000-02-18", "2000-03-04")))


def main():
    dataset, split = golden_dataset(), golden_split()
    norm_ds, stats = normalize(dataset, split.train_pixels)
    data = prepare_sequences(norm_ds, include_lsm=False)
    w, _ = train_lstm(data.subset(split.train_pixels), CONFIG, window=split.train_window)
    os.makedirs(DATA_DIR, exist_ok=True)
    save_model(CONTAINER, "lstm", lstm_payload(w, data.feature_names, stats, CONFIG.to_dict()))
    kind, payload = load_model(CONTAINER)
    predictions = predict_container(kind, payload, dataset, split)
    with open(PREDICTIONS, "w") as fh:
        json.dump({phase: {pid: y.tolist() for pid, y in series.items()}
                   for phase, series in predictions.items()}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
