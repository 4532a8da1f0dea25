"""Queen coverage on centered boards: loss calculus, constructions and exact search."""

from .constructions import (
    Pattern,
    StairsBuild,
    centralize,
    knight_square,
    pattern_of,
    stairs,
    stairs_details,
)
from .coverage import (
    AttackField,
    Configuration,
    attack_field,
    cover_count,
    is_nonattacking,
)
from .errors import (
    BudgetExceededError,
    DoesNotFitError,
    DomainError,
    InvariantError,
    NotStableError,
    QueenCoverError,
    RecordError,
    UnboundedLossError,
    UnsupportedSchemaError,
)
from .geometry import (
    BoardSpec,
    Square,
    board_contains,
    chebyshev_center_distance,
)
from .loss import (
    LossBreakdown,
    center_loss,
    center_loss_of_square,
    crossing_budget,
    internal_loss,
    internal_loss_stable,
    is_stable_board,
    noncongruent_pairs,
    overlap_concentration,
    predicted_cover,
    quarter_squares,
    total_loss,
)
from .search import (
    DEFAULT_BUDGET,
    FundamentalClass,
    LossMinimal,
    LossScan,
    OptimalSet,
    ScanEntry,
    SearchParams,
    ThresholdReport,
    border_certificate,
    exhaustive_optimal,
    fundamental_classes,
    loss_minimal_patterns,
    nonattacking_threshold,
    run_search,
    stabilizing_threshold,
    windowed_optimal,
)

__version__ = "0.1.0"
