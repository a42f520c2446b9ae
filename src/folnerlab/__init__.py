"""folnerlab: exact Folner averaging, lamplighter dynamics, and transport checks."""

__version__ = "0.1.0"

from .lamplighter import (  # noqa: F401
    CHECK,
    FLIP,
    HAT,
    IDENTITY,
    INF,
    INF_CHECK,
    INF_HAT,
    SIGMA,
    SIGMA_INV,
    GroupElement,
    Point,
    act,
    check,
    compose,
    flip_at,
    hat,
    inverse,
    metric,
    parse_word,
    shift_by,
    word_of,
)
from .folner import (  # noqa: F401
    FolnerSet,
    RateSequence,
    box_folner,
    explicit_folner,
    flip_balance,
    interleave_folner,
    left_defect,
    rate_folner,
    right_defect,
    support_family,
    translate_folner,
)
from .transport import (  # noqa: F401
    DiscreteMeasure,
    TransportPlan,
    assignment_distance,
    dual_lower_bound,
    wasserstein,
)
from .dynamics import (  # noqa: F401
    empirical_measure,
    example_case,
    folner_average,
    limit_apply,
    limit_measure,
    wf_estimate,
)
from .homeo import (  # noqa: F401
    HomeoFamily,
    PLHomeo,
    interval_empirical,
    matching_number,
    repelling_element,
    repelling_family,
    sup_distance,
)
