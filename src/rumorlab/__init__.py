"""rumorlab: how accurately can a network eavesdropper locate the origin of a
P2P flooding broadcast?

Simulators for trickle (discrete-time gossip) and diffusion (continuous-time
SI) spreading, eavesdropper/spy/snapshot adversary models, source estimators
(first-timestamp, ball centrality, timestamp rumor centrality, reporting
centrality, rumor centers), the matching closed-form detection bounds, and a
Monte Carlo harness that cross-validates simulation against theory.
"""

from .adversary import Observation, observe_eavesdropper, observe_snapshot, observe_spy
from .analytics import (
    TheoryValue,
    diffusion_ft,
    exponential_integral,
    reg_inc_beta_half,
    reporting_centrality_constant,
    spy_ft_bound,
    trickle_ft_asymptotic,
    trickle_ft_lower_bound,
    trickle_ml_lower,
    trickle_ml_upper,
)
from .estimators import (
    EstimateResult,
    ball_centrality,
    first_timestamp,
    reporting_centrality,
    rumor_centers,
    spy_first_timestamp,
)
from .graphs import (
    ExplicitGraph,
    LazyRegularTree,
    build_random_regular,
    hop_distance,
    lazy_regular_tree,
    load_edge_list,
    tree_path,
)
from .harness import (
    AdversarySpec,
    DetectionReport,
    ExperimentSpec,
    GraphSpec,
    run_experiment,
    sweep,
    wilson_interval,
)
from .spreading import (
    FirstReport,
    SpreadParams,
    SpreadTrace,
    first_report_trial,
    simulate_diffusion,
    simulate_trickle,
    trace_to_csv,
    trial_stream,
)
from .trc import ordering_count, timestamp_rumor_centrality

__version__ = "0.1.0"
