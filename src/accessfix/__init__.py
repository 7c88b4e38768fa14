"""accessfix: verify RBAC policy implementations and repair credential assignments.

The pipeline is parse -> validate -> verify -> repair:

* `sysmodel` holds the concrete system (rooms, doors, devices, links, users);
* `policy` holds the RBAC specification and flattens it to allowed/denied
  action triples;
* `facts` compiles the system into single-premise rules over zone, session
  and network-class facts and saturates them into one monotone credential
  formula per action, its enabling function, kept as an antichain of
  credential bitmasks over the rules' one credential index; under one fixed
  credential set the same rules give the reachable actions, which repair
  uses to re-check each solution;
* `enabling` holds the forward pass that computes those antichains, the
  index's encoder and its one decoder (`credential_names`), and `Dnf`, the
  formulas over names that are printed;
* `automata` builds the paper's credential-labelled reachability automata,
  which `accessfix automaton` prints and the tests use as the independent
  route that holds the compiled rules to the paper's semantics;
* `analysis` compares specification against implementation;
* `repair` searches credential assignments that remove every anomaly;
* `dslparser` and `cli` provide the textual formats and command line.
"""

from .analysis import (
    AnomalyReport,
    ImplementationSet,
    diff,
    enabling_by_zone,
    implementation_set,
    verify,
)
from .automata import (
    EPSILON,
    Automaton,
    ExtendedEvent,
    ReducedEvent,
    Session,
    SuperState,
    build_super_automaton,
    build_user_automaton,
    reachable_reduced_events,
    to_dot,
)
from .dslparser import ParseError, SourceSpan, parse_policy, parse_system, print_policy, print_system
from .enabling import Dnf, credential_mask, credential_names, enabling_functions, evaluate
from .facts import compile_rules, may_be_ambiguous, reachable, saturate, zone_functions
from .policy import (
    Permission,
    PolicyError,
    PolicyInconsistent,
    PolicySpec,
    Role,
    SpecSets,
    closure_allowed,
    closure_denied,
    closure_users,
    spec_sets,
    user_spec_sets,
    validate_policy,
)
from .repair import RepairResult, RepairSolution, repair_all, repair_user
from .sysmodel import (
    BecomesAccount,
    Device,
    Diagnostic,
    DoorRule,
    Link,
    LocAcc,
    Location,
    ModelError,
    OperationVariant,
    PhyAcc,
    Port,
    RemAcc,
    SystemModel,
    User,
    Zone,
    external_zone,
    lan_classes,
    network_path,
    root_device,
    validate,
)

__version__ = "0.1.0"
