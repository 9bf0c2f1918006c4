"""One harness for the tests' frozen reference data: a dataset is a JSON file
in tests/data plus the function that regenerates it, and only this module
reads, writes or compares those files. A script that owns datasets hands
them to `main`: `--write` regenerates their files, and `--check` regenerates
them in memory, prints each key path that differs from the file or that
only one side has, and exits 1 on any. pytest does not collect this file.
"""
import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Dataset:
    """tests/data/<name>.json, as json.dumps(generate(), indent=1)."""

    name: str
    generate: Callable[[], Any]

    def load(self) -> Any:
        return json.loads((DATA / f"{self.name}.json").read_text(encoding="utf-8"))

    def write(self, data: Any) -> None:
        (DATA / f"{self.name}.json").write_text(json.dumps(data, indent=1) + "\n",
                                                encoding="utf-8")


def differences(got: Any, want: Any, path: str = "") -> list[str]:
    """One line per key path (parts joined by " / ") at which fresh data `got`
    and the file's `want` differ, in the file's order, then got's: "differs:
    <path>", or "only in the file: <path>" or "not in the file: <path>" for a
    key that one side lacks. Dicts are compared key by key, other values whole."""
    if not (isinstance(got, dict) and isinstance(want, dict)):
        return [] if got == want else [f"differs: {path}"]
    out = []
    for k in (*want, *(k for k in got if k not in want)):
        at = f"{path} / {k}" if path else str(k)
        out += (differences(got[k], want[k], at) if k in got and k in want
                else [f"{'only in' if k in want else 'not in'} the file: {at}"])
    return out


def main(*datasets: Dataset) -> int:
    """--write regenerates each dataset's file; --check compares each with
    fresh data and returns 1 if any differs."""
    parser = argparse.ArgumentParser(description="Regenerate or check frozen test data.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the files")
    mode.add_argument("--check", action="store_true", help="compare with the files")
    write, failed = parser.parse_args().write, False
    for dataset in datasets:
        if write:
            dataset.write(dataset.generate())
            continue
        diffs = differences(dataset.generate(), dataset.load())
        print(*diffs, f"{dataset.name}: {'differs' if diffs else 'matches'}", sep="\n")
        failed = failed or bool(diffs)
    return int(failed)
