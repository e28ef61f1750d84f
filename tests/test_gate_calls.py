"""The radius gate runs once per state call, and its memo key is taken once.

The benchmark's traced run counts gate calls by wrapping
``bicoherent.convergence_for_system`` where the module binds it, and reads
``bicoherent.states == bicoherent.gate_calls``; every state call must reach
the gate exactly once through that binding, whether the disc is fitted by
the call or found in the memo.  The memo key of a disc or a filter is the
epsilon sequence's ``key``: the bytes of its values, taken once.
"""

import numpy as np
import pytest

from isospec import (
    EpsilonSequence,
    coherent_demo,
    coherent_grid,
    coherent_pair,
    filter_and_build,
)
from isospec import bicoherent


def _systems():
    """A fresh level-1 system and a level-2 one with its kernel, each with an empty memo."""
    model = coherent_demo(1.0, 4).model
    return model.system1(), model.system2(include_kernel=True)


@pytest.fixture
def gate_calls(monkeypatch):
    calls = []
    gate = bicoherent.convergence_for_system

    def counted(*args, **kwargs):
        calls.append(args)
        return gate(*args, **kwargs)

    monkeypatch.setattr(bicoherent, "convergence_for_system", counted)
    return calls


def _state_calls(system1, system2, eps):
    """(name, call) for each public state call; each makes one _states call."""
    return [
        ("coherent_pair", lambda: coherent_pair(system1, eps, 0.3 + 0.1j, 6)),
        ("coherent_grid", lambda: coherent_grid(system1, eps, [0.1, 0.2j, -0.3], 6)),
        ("filter_and_build", lambda: filter_and_build(system2, eps, 0.2 - 0.1j, 3)),
        ("relabeled", lambda: filter_and_build(system2, eps, 0.2, 3, "relabeled")),
    ]


@pytest.mark.parametrize("name", ["coherent_pair", "coherent_grid", "filter_and_build",
                                  "relabeled"])
def test_each_state_call_reaches_the_gate_once_fresh_and_on_a_memo_hit(name, gate_calls):
    system1, system2 = _systems()
    eps = EpsilonSequence.linear(2.0, system1.size)
    call = dict(_state_calls(system1, system2, eps))[name]
    call()  # a fresh system: the gate fits the disc
    assert len(gate_calls) == 1
    call()  # the same system again: the gate reads the disc from the memo
    call()
    assert len(gate_calls) == 3


def test_a_run_of_mixed_state_calls_counts_one_gate_call_each(gate_calls):
    system1, system2 = _systems()
    eps = EpsilonSequence.linear(2.0, system1.size)
    calls = _state_calls(system1, system2, eps)
    for _ in range(3):
        for _, call in calls:
            call()
    assert len(gate_calls) == 3 * len(calls)


def test_the_sequence_key_is_its_bytes_taken_once():
    source = 2.0 * np.arange(8.0)
    eps = EpsilonSequence(source)
    key = eps.key
    assert key == source.tobytes()
    assert eps.key is key  # kept, not taken again
    source[3] = 99.0  # a later write to the caller's array changes neither
    assert eps.key is key
    assert eps.key == (2.0 * np.arange(8.0)).tobytes() == eps.values.tobytes()


def test_the_memo_keys_hold_the_sequence_key_itself():
    system1, system2 = _systems()
    eps = EpsilonSequence.linear(2.0, system1.size)
    coherent_pair(system1, eps, 0.3, 6)
    filter_and_build(system2, eps, 0.2, 3)
    for memo in (system1.memo, system2.memo):
        (key,) = memo
        assert key[-1] is eps.key
