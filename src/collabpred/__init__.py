"""Two-party collaborative prediction protocols with full audits.

Agents holding disjoint feature blocks exchange only predictions (or
actions) over a multi-round conversation each day. The package provides
the online protocol driver with a forward-ridge learner stack, the batch
level-set boosting pipeline with replayable model transcripts, the
action-mediated decision protocol, exact Bayesian simulation on finite
priors, and exact checkers for the lower-bound instances.
"""

from .core import (
    BucketingSpec,
    ConversationTranscript,
    RegretReport,
    SequenceDataset,
    conversation_calibration_error,
    conversation_swap_regret,
    disagreement_fraction,
    ece,
    sqe,
    swap_regret,
)
from .learners import ConversationWrapper, LinearClassSpec, RidgeBank, SwapWrapper, VawState

__version__ = "0.1.0"
