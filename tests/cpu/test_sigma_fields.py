"""The sigma table (``repro.cpu.macroop.SIGMA_FIELDS``) against live cores.

The macro tier replays a loop only where the core equals its snapshot
shifted by one period, and it decides that — and applies n periods — from
one table of field relations.  Three checks keep the table honest:

* **coverage** — every attribute of a live core, of its in-flight uops and
  of every object the core owns has a row, and every row names an
  attribute;
* **perturbation** — at a real sigma-matching boundary, perturbing any
  compared row makes ``_sigma_match`` refuse;
* **landing** — right after a replay, every row that holds plain data
  (engine bookkeeping aside) equals the naive engine's value on the same
  cycle, so an advanced or shifted row that apply skipped is caught.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import deque
from operator import attrgetter

import pytest

from repro.apps import microbench as mb
from repro.common.counters import ENV_FAST, ENV_MACRO
from repro.cpu import macroop
from repro.cpu.backend import ST_EXECUTING, ST_WAITING
from repro.cpu.delivery import FlushStrategy
from repro.cpu.isa import Op
from repro.cpu.macroop import (
    ADVANCED,
    CLEAN,
    EQUAL,
    FREE,
    IGNORED,
    INDEX,
    SHIFTED,
    SIGMA_FIELDS,
    WAITING,
    MacroController,
)
from repro.cpu.multicore import MultiCoreSystem

#: Rows that hold the engines' own bookkeeping, which legitimately differs
#: between the naive and the macro engine after a replay.
ENGINE_ONLY = {
    "engine_cycles_skipped",
    "_next_activity",
    "_idle_anchor",
    "_na_streak",
    "_na_backoff",
    "_macro",
    "_macro_rec",
}

#: A daxpy loop: at its matching boundaries the ROB holds waiting uops,
#: both LSQ lists, both heaps and a rename map.
ITERATIONS = 1_500


def _system():
    workload = mb.make_linpack(iterations=ITERATIONS)
    system = MultiCoreSystem([workload.program], [FlushStrategy()])
    workload.install(system.shared)
    return system


def _attributes(obj):
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update(name for name in slots if name not in ("__dict__", "__weakref__"))
    return names


def _split(path):
    owner, _, name = path.rpartition(".")
    return owner, name


CORE_ROWS = {row.path: row for row in SIGMA_FIELDS if not row.path.startswith("uop.")}
UOP_ROWS = {row.path[4:]: row for row in SIGMA_FIELDS if row.path.startswith("uop.")}
#: Core attributes that are objects the core owns: every proper prefix of a
#: row path.
NESTED = {path.rsplit(".", k)[0] for path in CORE_ROWS for k in range(1, path.count(".") + 1)}


def _walk(obj, prefix=""):
    paths = set()
    for name in _attributes(obj):
        path = prefix + name
        if path in NESTED:
            paths |= _walk(getattr(obj, name), path + ".")
        else:
            paths.add(path)
    return paths


def _compared(row):
    return row.relation in (EQUAL, CLEAN, SHIFTED, INDEX) or (
        row.relation == ADVANCED and row.arg != FREE
    )


# ---------------------------------------------------------------------------
# Coverage


def test_rows_name_exactly_the_live_attributes():
    system = _system()
    system.run(2_000)
    core = system.cores[0]
    assert core.rob, "no uop in flight"
    live = _walk(core) | {"uop." + name for uop in core.rob for name in _attributes(uop)}
    rows = {row.path for row in SIGMA_FIELDS}
    assert sorted(live - rows) == [], "attributes without a row"
    assert sorted(rows - live) == [], "rows naming no attribute"
    assert len(rows) == len(SIGMA_FIELDS), "duplicate row"


def test_rows_are_well_formed():
    system = _system()
    system.run(2_000)
    core = system.cores[0]
    for row in SIGMA_FIELDS:
        if row.relation == IGNORED:
            assert row.note, f"{row.path}: an ignored row needs its reason"
        if row.relation == EQUAL and not row.path.startswith("uop."):
            owner, name = _split(row.path)
            value = getattr(attrgetter(owner)(core) if owner else core, name)
            if isinstance(value, (list, dict, set, deque, bytearray, array)):
                assert callable(row.arg), f"{row.path}: the snapshot must copy it"


# ---------------------------------------------------------------------------
# Perturbation


def _bumped(value, core):
    """A value that no relation can confuse with ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1_000_003
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return -12_345
    if isinstance(value, Op):
        return Op.HALT if value is not Op.HALT else Op.NOP
    if isinstance(value, (tuple, list, deque)):
        return type(value)([*value, -12_345])
    if isinstance(value, bytearray):
        return value + b"\xff"
    if isinstance(value, array):
        return value + array(value.typecode, [-12_345])
    if isinstance(value, (set, frozenset)):
        return type(value)([*value, ("bump", 1)])
    if isinstance(value, dict):
        return {**value, 10**6: core.rob[0]}
    return None  # an object, e.g. the instruction: compare against None


def _index_bump(path, value, core):
    """Perturbations for INDEX rows, which hold uop references."""
    rob = core.rob
    if path == "rob":
        items = list(value)
        items[0], items[-1] = items[-1], items[0]
        return deque(items)
    if path in ("ready_heap", "exec_heap"):
        if value:
            t, seq, uop = value[0]
            return [(t + 1_000_003, seq, uop)] + value[1:]
        return [(core.cycle + 1_000_003, rob[0].seq, rob[0])]
    if path == "dependents":
        waiting = [uop for uop in rob if uop.state == ST_WAITING]
        return value + waiting[:1] if waiting else None
    if isinstance(value, dict):  # reg_producer, producers
        return {**value, 10**6: rob[0]}
    return value + [rob[0]]  # lsq lists


def _uop_for(row, rob):
    """A ROB uop on which the row is compared, or None."""
    for uop in rob:
        if row.when == WAITING and uop.state != ST_WAITING:
            continue
        if row.path == "uop.producers" and uop.state >= ST_EXECUTING:
            continue
        return uop
    return None


def test_perturbing_any_compared_row_refuses_the_match(monkeypatch):
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "1")
    real = macroop._sigma_match
    untested = {row.path for row in SIGMA_FIELDS if _compared(row)}
    matches = []

    def perturbed(core, snap, commits):
        match = real(core, snap, commits)
        if match is None or not untested:
            return match
        matches.append(match)
        for row in SIGMA_FIELDS:
            if row.path not in untested:
                continue
            if row.path.startswith("uop."):
                owner, name = _uop_for(row, core.rob), row.path[4:]
                if owner is None:
                    continue
            else:
                path_owner, name = _split(row.path)
                owner = attrgetter(path_owner)(core) if path_owner else core
            value = getattr(owner, name)
            if row.relation == INDEX:
                bumped = _index_bump(name, value, core)
                if bumped is None:
                    continue
            else:
                bumped = _bumped(value, core)
            setattr(owner, name, bumped)
            try:
                assert real(core, snap, commits) is None, f"{row.path} perturbed, still matched"
            finally:
                setattr(owner, name, value)
            untested.discard(row.path)
        assert real(core, snap, commits) is not None, "perturbations not undone"
        return match

    monkeypatch.setattr(macroop, "_sigma_match", perturbed)
    system = _system()
    system.run(400_000, until_halted=[0])
    assert matches, "no sigma-matching boundary reached"
    assert untested == set(), f"rows never perturbed: {sorted(untested)}"


# ---------------------------------------------------------------------------
# Landing


class _Stop(Exception):
    pass


def _plain(value):
    if value is None or isinstance(value, (bool, int, float, str, Op, bytearray, array)):
        return True
    if isinstance(value, (list, tuple, set, frozenset, deque)):
        return all(_plain(item) for item in value)
    if isinstance(value, dict):
        return all(_plain(k) and _plain(v) for k, v in value.items())
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _core_view(core):
    view = {}
    for path in sorted(CORE_ROWS):
        if path in ENGINE_ONLY:
            continue
        value = attrgetter(path)(core)
        if _plain(value):
            view[path] = value
    for cache in ("dcache", "l2cache"):
        for name in ("_sets", "hits", "misses"):
            view[f"hierarchy.{cache}.{name}"] = attrgetter(f"hierarchy.{cache}.{name}")(core)
    slots = []
    for uop in core.rob:
        slot = {}
        for name, row in UOP_ROWS.items():
            if row.relation in (IGNORED, INDEX) or row.when:
                continue
            slot[name] = getattr(uop, name)
        slots.append(slot)
    view["rob"] = slots
    return view


def test_replay_lands_on_the_naive_state(monkeypatch):
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "1")
    real_apply = MacroController._apply
    landed = {}

    def apply(self, plans, n):
        real_apply(self, plans, n)
        (core,) = [plan.core for plan in plans]
        landed["cycle"] = core.cycle
        landed["view"] = _core_view(core)
        raise _Stop

    monkeypatch.setattr(MacroController, "_apply", apply)
    with pytest.raises(_Stop):
        _system().run(400_000, until_halted=[0])
    monkeypatch.setattr(MacroController, "_apply", real_apply)

    monkeypatch.setenv(ENV_FAST, "0")
    naive = _system()
    naive.run(landed["cycle"] + 1)
    assert naive.cores[0].cycle == landed["cycle"]
    view = _core_view(naive.cores[0])
    mismatched = sorted(k for k in view if view[k] != landed["view"].get(k))
    assert mismatched == []
    advanced = [row.path for row in SIGMA_FIELDS if row.relation == ADVANCED]
    assert set(advanced) <= set(view)
