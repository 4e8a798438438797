"""Two-party collaborative prediction protocols with full audits.

Agents holding disjoint feature blocks exchange only predictions (or
actions) over a multi-round conversation each day. The package provides
the online protocol driver with a forward-ridge learner stack, the batch
level-set boosting pipeline with replayable model transcripts, the
action-mediated decision protocol, exact Bayesian simulation on finite
priors, and exact checkers for the lower-bound instances.

The public names below load their module, and numpy with it, on first
access, so `import collabpred` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("BucketingSpec", "ConversationTranscript", "SequenceDataset",
                     "conversation_calibration_error",
                     "conversation_swap_regret", "disagreement_fraction", "ece", "sqe",
                     "swap_regret"), "core"),
    "ConversationWrapper": "learners",
    "LinearClassSpec": "weaklearn",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
