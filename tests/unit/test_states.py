"""Unit tests for the local state vocabulary and Fig. 6 transitions."""

import pytest

from repro.protocols.states import (
    COMMITTABLE,
    FORBIDDEN_TRANSITIONS,
    LEGAL_TRANSITIONS,
    TERMINAL,
    TxnState,
)


class TestClassification:
    def test_committable_states(self):
        assert COMMITTABLE == {TxnState.PC, TxnState.C}

    def test_terminal_states(self):
        assert TERMINAL == {TxnState.A, TxnState.C}

    def test_w_is_noncommittable(self):
        """A site in W knows only its own vote (paper §2)."""
        assert TxnState.W not in COMMITTABLE


class TestTransitions:
    def test_no_pc_pa_edge(self):
        """The rule Example 3 depends on: no PC <-> PA transition."""
        assert (TxnState.PC, TxnState.PA) not in LEGAL_TRANSITIONS
        assert (TxnState.PA, TxnState.PC) not in LEGAL_TRANSITIONS
        assert (TxnState.PC, TxnState.PA) in FORBIDDEN_TRANSITIONS

    def test_terminal_states_absorbing(self):
        for terminal in (TxnState.A, TxnState.C):
            for dst in TxnState:
                if dst is not terminal:
                    assert (terminal, dst) not in LEGAL_TRANSITIONS

    def test_normal_commit_path(self):
        assert (TxnState.Q, TxnState.W) in LEGAL_TRANSITIONS
        assert (TxnState.W, TxnState.PC) in LEGAL_TRANSITIONS
        assert (TxnState.PC, TxnState.C) in LEGAL_TRANSITIONS

    def test_normal_abort_paths(self):
        assert (TxnState.Q, TxnState.A) in LEGAL_TRANSITIONS
        assert (TxnState.W, TxnState.A) in LEGAL_TRANSITIONS
        assert (TxnState.W, TxnState.PA) in LEGAL_TRANSITIONS
        assert (TxnState.PA, TxnState.A) in LEGAL_TRANSITIONS

    def test_quorum_commit_reaches_w_directly(self):
        """Fig. 9: the coordinator commits before all PC-ACKs, so a W
        site can legitimately receive COMMIT."""
        assert (TxnState.W, TxnState.C) in LEGAL_TRANSITIONS

    def test_pc_can_be_aborted_by_command(self):
        assert (TxnState.PC, TxnState.A) in LEGAL_TRANSITIONS

    def test_pa_can_be_committed_by_command(self):
        assert (TxnState.PA, TxnState.C) in LEGAL_TRANSITIONS

    def test_q_cannot_reach_committable(self):
        """A site that never voted must never enter PC or C."""
        assert (TxnState.Q, TxnState.PC) not in LEGAL_TRANSITIONS
        assert (TxnState.Q, TxnState.C) not in LEGAL_TRANSITIONS

    def test_legal_and_forbidden_disjoint(self):
        assert not (LEGAL_TRANSITIONS & FORBIDDEN_TRANSITIONS)
