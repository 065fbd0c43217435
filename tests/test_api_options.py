"""RunOptions surface: the typed run-wiring value, the modes it no longer
has, and the removed bare keyword spelling of its fields."""

import dataclasses
import warnings

import pytest

from repro.api import DEFAULT_RUN_OPTIONS, RunOptions, build_system
from repro.obs.bus import EventBus


def test_run_options_defaults_are_the_plain_run():
    opts = RunOptions()
    assert not opts.bus.enabled
    assert not opts.fault_injector.enabled
    assert not opts.crash_schedule.enabled
    assert opts == DEFAULT_RUN_OPTIONS


def test_run_options_is_frozen_and_replace_derives():
    opts = RunOptions(reorder_seed=3)
    with pytest.raises(AttributeError):
        opts.reorder_seed = 4
    bus = EventBus()
    derived = dataclasses.replace(opts, bus=bus)
    assert derived.reorder_seed == 3 and derived.bus is bus
    assert not opts.bus.enabled  # original untouched


def test_run_options_rejects_unknown_mode():
    """RunOptions has no mode: every run executes on the one per-op
    engine, and the closed-form estimate is ``analytical_estimate``."""
    for mode in ("sim", "analytical", "warp"):
        with pytest.raises(TypeError, match="mode"):
            RunOptions(mode=mode)


@pytest.mark.parametrize("mode", ["auto", "object", "columnar"])
def test_removed_interpreter_modes_are_rejected(mode):
    with pytest.raises(TypeError, match="mode"):
        RunOptions(mode=mode)


@pytest.mark.parametrize("kwargs", [
    {"bus": EventBus()}, {"mode": "sim"}, {"reorder_seed": 9},
], ids=lambda kw: next(iter(kw)))
def test_bare_run_kwargs_are_rejected(kwargs):
    with pytest.raises(TypeError, match="unexpected keyword arguments"):
        build_system("bbb", entries=8, **kwargs)


def test_mixing_options_and_legacy_kwargs_is_an_error():
    with pytest.raises(TypeError, match="unexpected keyword arguments"):
        build_system("bbb", options=RunOptions(), mode="sim")


def test_options_spelling_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build_system("bbb", entries=8, options=RunOptions(reorder_seed=1))
