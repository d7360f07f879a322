"""Deterministic simulator for backbone construction in SINR networks where
nodes know neighbor labels but not coordinates."""

__version__ = "0.1.0"

from .errors import SimulationError
from .physical import (
    CommGraph,
    DilutionConstants,
    GridIndex,
    PhysicalInstance,
    SinrParams,
    broadcast_range,
    build_graph,
    derive_dilution,
    distance,
    grid_box,
    grid_index,
    load_instance,
    make_instance,
    parse_instance,
    pivotal_side,
    save_instance,
    serialize_instance,
)
from .protocol import (
    BackboneResult,
    Message,
    NodeView,
    ProtocolConfig,
    Simulator,
    backbone_creation,
    leader_election,
    neighborhood_inform,
    three_hop_connection,
    token_passing,
    two_hop_connection,
)
from .selection import (
    SelectionFamily,
    certify,
    construct_selector,
    construct_ssf,
    pair_index,
)
from .verify import (
    Verdict,
    check_bucket_coverage,
    check_connected_backbone,
    check_constant_degree,
    check_diameter,
    check_dominating,
    check_leader_grid,
    check_size_ratio,
    expected_three_hop,
    expected_two_hop,
    min_cds,
    run_all_checks,
)
