"""The XML, DTD and checkpoint bytes depend on the corpus, not on
``PYTHONHASHSEED``.

String hashing is salted per interpreter, so any set or dict iteration
that leaks into output ordering would make two runs of the same corpus
disagree.  Each run here is a fresh ``repro-web convert-corpus
--discover`` process over the same 24 generated resumes, under two hash
seeds and at one and two workers; every run must write the same XML
files, byte for byte, and print the same DTD declarations.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HASH_SEEDS = ("0", "12345")
WORKERS = (1, 2)


def convert(out: Path, *, hash_seed: str, workers: int) -> tuple[dict, list]:
    """One CLI run; returns ({file name: XML}, DTD declaration lines)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "convert-corpus",
            "--generate", "24", "--out", str(out), "--discover", "--quiet",
            "--max-workers", str(workers),
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    xml = {path.name: path.read_text(encoding="utf-8") for path in out.glob("*.xml")}
    dtd = [line for line in proc.stdout.splitlines() if "<!" in line]
    return xml, dtd


def test_output_independent_of_hash_seed_and_workers(tmp_path):
    runs = {
        (seed, workers): convert(
            tmp_path / f"seed{seed}-w{workers}", hash_seed=seed, workers=workers
        )
        for seed in HASH_SEEDS
        for workers in WORKERS
    }
    reference_xml, reference_dtd = runs[HASH_SEEDS[0], 1]
    assert len(reference_xml) == 24
    assert reference_dtd
    for key, (xml, dtd) in runs.items():
        assert xml == reference_xml, key
        assert dtd == reference_dtd, key


def evolve_state(state: Path, *, hash_seed: str) -> dict[str, bytes]:
    """``evolve init`` plus two ``evolve fold``s; returns the checkpoint
    files' bytes.  The first fold writes the snapshot; the second, a
    third its size, stays a frame in the delta log."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    commands = (
        ["init", str(state)],
        ["fold", str(state), "--generate", "12", "--seed", "3", "--max-workers", "1"],
        ["fold", str(state), "--generate", "4", "--seed", "4", "--max-workers", "1"],
    )
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "evolve", *command],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    return {
        name: (state / name).read_bytes() for name in ("snapshot.bin", "deltas.log")
    }


def test_checkpoint_bytes_independent_of_hash_seed(tmp_path):
    """The accumulator's key order, and with it every snapshot and delta
    frame, follows the documents, not string hashing."""
    runs = {
        seed: evolve_state(tmp_path / f"state{seed}", hash_seed=seed)
        for seed in HASH_SEEDS
    }
    reference = runs[HASH_SEEDS[0]]
    assert reference["snapshot.bin"] and reference["deltas.log"]
    for seed, files in runs.items():
        assert files == reference, seed
