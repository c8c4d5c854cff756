"""Local transaction states and the Fig. 6 transition relation.

The paper's protocols use six local states:

=====  ==================  ===========================================
state  name                meaning at a participant
=====  ==================  ===========================================
Q      initial             received the request, has not voted
W      wait                voted 'yes', awaiting the outcome
PA     prepare-to-abort    relinquished its right to join a *commit*
                           quorum (new state introduced by this paper)
PC     prepare-to-commit   relinquished its right to join an *abort*
                           quorum (the 3PC buffer state)
A      abort               aborted — terminal, irrevocable
C      commit              committed — terminal, irrevocable
=====  ==================  ===========================================

Two classifications drive every protocol decision:

* **committable** — a state a site may only occupy once *all* sites
  have voted yes.  Here: PC and C.  (W is noncommittable: a site in W
  knows only its own vote.)
* **terminal** — A and C; once entered, never left.

The transition relation below is exactly Fig. 6 of the paper.  Note the
deliberate *absence* of PC -> PA and PA -> PC: a site that joined the
formation of one kind of quorum must never join the other kind, which
is the fact Example 3's counterexample (and our test
``test_example3_two_coordinators``) turns on.
"""

from __future__ import annotations

import enum
from typing import Mapping


class TxnState(enum.Enum):
    """Local state of one transaction at one participant."""

    Q = "initial"
    W = "wait"
    PA = "prepare-to-abort"
    PC = "prepare-to-commit"
    A = "abort"
    C = "commit"

    #: Hash by identity, as equality already is (an Enum member equals
    #: only itself).  ``Enum.__hash__`` hashes the member's name in
    #: Python, and every state transition hashes two states; the slot
    #: inherited from ``object`` is C-level.  Nothing can tell the two
    #: apart: no code iterates a set or dict of states into output
    #: (membership tests and insertion-ordered dicts only), and the
    #: old name-based hash was salted per process anyway, so no order
    #: ever depended on it.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.name


#: committable states: occupied only after a unanimous yes vote.
COMMITTABLE: frozenset[TxnState] = frozenset({TxnState.PC, TxnState.C})

#: terminal (irrevocable) states.
TERMINAL: frozenset[TxnState] = frozenset({TxnState.A, TxnState.C})

#: each outcome's terminal state, and the other way round: the one
#: spelling of "commit is C, abort is A"
OUTCOME_STATE: Mapping[str, TxnState] = {"commit": TxnState.C, "abort": TxnState.A}
STATE_OUTCOME: Mapping[TxnState, str] = {state: outcome for outcome, state in OUTCOME_STATE.items()}

#: the Fig. 6 transition relation.  W splits on quorum participation:
#: W -> PC (joins a commit quorum), W -> PA (joins an abort quorum),
#: W -> A (abort command without quorum participation, e.g. the normal
#: commit protocol's abort path).  Q -> W on a yes vote, Q -> A on a no
#: vote / abort.  PC -> C and PC -> A? No: a site in PC may still be
#: aborted only via a command from a coordinator that formed an abort
#: quorum *without* it — but Fig. 6 routes that through the command
#: itself; we model commands to PC as PC -> C (commit) and PC -> A
#: (abort), since termination protocol 1's immediate-abort branch can
#: legitimately abort a PC site (e.g. some other participant is in Q).
LEGAL_TRANSITIONS: frozenset[tuple[TxnState, TxnState]] = frozenset(
    {
        (TxnState.Q, TxnState.W),
        (TxnState.Q, TxnState.A),
        (TxnState.W, TxnState.PC),
        (TxnState.W, TxnState.PA),
        (TxnState.W, TxnState.A),
        (TxnState.W, TxnState.C),  # quorum commit: COMMIT can reach a W site
        (TxnState.PC, TxnState.C),
        (TxnState.PC, TxnState.A),
        (TxnState.PA, TxnState.A),
        (TxnState.PA, TxnState.C),  # symmetric: delayed COMMIT after immediate-commit branch
    }
)

#: the transitions Example 3 shows must NOT exist.
FORBIDDEN_TRANSITIONS: frozenset[tuple[TxnState, TxnState]] = frozenset(
    {
        (TxnState.PC, TxnState.PA),
        (TxnState.PA, TxnState.PC),
        (TxnState.A, TxnState.C),
        (TxnState.C, TxnState.A),
    }
)


def is_committable(state: TxnState) -> bool:
    """True for states a site may occupy only after a unanimous yes."""
    return state in COMMITTABLE


def is_terminal(state: TxnState) -> bool:
    """True for the irrevocable states A and C."""
    return state in TERMINAL


def can_transition(src: TxnState, dst: TxnState) -> bool:
    """True when ``src -> dst`` is a legal Fig. 6 transition.

    Self-loops are legal everywhere (re-delivered commands are absorbed
    idempotently); any terminal -> different-state move is illegal.
    """
    return src is dst or (src, dst) in LEGAL_TRANSITIONS
