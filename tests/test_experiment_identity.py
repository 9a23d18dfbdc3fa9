"""Serial ≡ ``--jobs 2`` for the extension experiments E18–E23.

Each experiment runs twice through :func:`repro.runtime.run_experiments`,
once in-process (``jobs=1``) and once sharded over two workers
(``jobs=2``), both uncached and in separate cache directories.  The two
:class:`~repro.analysis.experiments.ExperimentResult`\\ s must agree on
title, headers, notes and every row, after dropping the declared
wall-clock columns.  Every row must then satisfy the experiment's
declared invariants (S8 conflict-freedom, S30 delay budgets, chaos
fidelity, ...).  Columns are named by header, so a renamed column fails
the test instead of silently emptying the check.

Parameters are small and fixed (all six cases take about 40 s on one
CPU); run one by hand with e.g. ``python -m repro E21 --jobs 2 --no-cache --param
'sizes=[[24,16],[60,45]]' --param exact_link_cap=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import pytest

from repro.runtime import run_experiments
from repro.runtime.ledger import DEFAULT_SQLITE_LEDGER_NAME


def _yes(value) -> bool:
    return value is True  # printed as "yes"


def _positive(value) -> bool:
    return value > 0


@dataclass(frozen=True)
class Case:
    """One experiment's identity run: parameters, drops, invariants."""

    params: Mapping[str, Any] = field(default_factory=dict)
    #: wall-clock columns, which differ between any two runs
    drop: tuple[str, ...] = ()
    #: column -> predicate every row's value must satisfy
    invariants: Mapping[str, Callable[[Any], bool]] = field(
        default_factory=dict)
    #: ledger backend of the serial run (the sharded run keeps jsonl)
    serial_ledger: Optional[str] = None


CASES = {
    "E18": Case(),
    "E19": Case(),
    "E20": Case(),
    "E21": Case(params={"sizes": [[24, 16], [60, 45]], "exact_link_cap": 0},
                drop=("exact_s", "zoned_s", "greedy_s"),
                invariants={"s8_ok": _yes, "s30_ok": _yes}),
    "E22": Case(params={"intensities": [0.0, 0.5, 1.0], "num_tasks": 6},
                invariants={"identical": _yes, "ledgers_agree": _yes},
                serial_ledger="sqlite"),
    "E23": Case(params={"cs_multipliers": [1.0, 2.5], "duration_s": 1.0},
                invariants={"uncovered": _positive, "sinr_s8_ok": _yes}),
}


def _run(experiment: str, case: Case, jobs: int, cache_dir,
         ledger_backend: Optional[str] = None):
    ledger_path = (str(cache_dir / DEFAULT_SQLITE_LEDGER_NAME)
                   if ledger_backend == "sqlite" else None)
    (outcome,) = run_experiments(
        [experiment], jobs=jobs, use_cache=False, cache_dir=str(cache_dir),
        ledger_path=ledger_path, ledger_backend=ledger_backend,
        params=dict(case.params) or None)
    assert outcome.ok, outcome.error
    return outcome.result


def _without(result, columns: tuple[str, ...]) -> tuple:
    keep = [i for i, name in enumerate(result.headers) if name not in columns]
    return (result.title, [result.headers[i] for i in keep], result.notes,
            [[row[i] for i in keep] for row in result.rows])


@pytest.mark.parametrize("experiment", sorted(CASES))
def test_serial_and_sharded_tables_are_identical(experiment, tmp_path):
    case = CASES[experiment]
    serial = _run(experiment, case, 1, tmp_path / "serial",
                  ledger_backend=case.serial_ledger)
    sharded = _run(experiment, case, 2, tmp_path / "jobs2")

    named = set(case.drop) | set(case.invariants)
    assert named <= set(serial.headers), named - set(serial.headers)
    assert serial.rows
    assert _without(serial, case.drop) == _without(sharded, case.drop)
    for column, holds in case.invariants.items():
        at = serial.headers.index(column)
        bad = [row for row in serial.rows if not holds(row[at])]
        assert not bad, f"{experiment} {column}: {bad}"
