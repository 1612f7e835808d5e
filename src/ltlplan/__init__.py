"""Task planning on labeled grids via temporal-logic synthesis.

The pipeline: parse a grid map, abstract it into a policy-labeled
transition system, prune the system until its task labels are reliable,
compile a temporal formula into a Büchi automaton, search their product
for the shortest satisfying plan, and execute that plan with
minimum-violation navigation.
"""

from .gridworld import GridMap, MapParseError, Region, extract_regions, parse_map
from .ltl import BuchiAutomaton, Guard, LtlParseError, parse_ltl, to_buchi
from .mvpolicy import Trace, UnreachableTargetError, execute_plan, mv_path, parse_policy
from .product import Plan, ProductAutomaton, build_product, find_plan
from .pruner import PruneReport, prune
from .tsys import TransitionSystem, build_initial_ts, generate_ts_labels, is_deterministic

__version__ = "0.1.0"

__all__ = [
    "BuchiAutomaton",
    "GridMap",
    "Guard",
    "LtlParseError",
    "MapParseError",
    "Plan",
    "ProductAutomaton",
    "PruneReport",
    "Region",
    "Trace",
    "TransitionSystem",
    "UnreachableTargetError",
    "build_initial_ts",
    "build_product",
    "execute_plan",
    "extract_regions",
    "find_plan",
    "generate_ts_labels",
    "is_deterministic",
    "mv_path",
    "parse_ltl",
    "parse_map",
    "parse_policy",
    "prune",
    "to_buchi",
    "__version__",
]
