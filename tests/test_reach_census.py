"""The reach census in tests/reach_census.json against the package source.

``python3 tests/reach.py`` runs the trace that finds the functions no command
or benchmark job enters.  This test does not run it: it checks that every
entry has a fate and a reason, that every function marked kept is still
defined, and that every one marked deleted is gone, export included.
"""

from __future__ import annotations

import importlib

import reach
import stacky


def test_every_census_entry_has_a_fate_and_a_reason():
    for name, entry in reach.load_census().items():
        assert set(entry) == {"fate", "reason"}, name
        assert entry["fate"] in reach.FATES, name
        assert entry["reason"].strip(), name


def test_kept_functions_exist_and_deleted_ones_do_not():
    defined = reach.defined_functions()
    for name, entry in reach.load_census().items():
        if entry["fate"] == "kept":
            assert name in defined, f"{name} is marked kept but no longer defined"
            continue
        assert name not in defined, f"{name} is marked deleted but still defined"
        module, *path = name.split(".")
        obj = importlib.import_module(f"stacky.{module}")
        for attr in path[:-1]:
            obj = getattr(obj, attr)
        assert not hasattr(obj, path[-1]), f"{name} is marked deleted but still bound"
        if len(path) == 1:
            assert not hasattr(stacky, path[0]), f"stacky still exports {path[0]}"
