"""accessfix: verify RBAC policy implementations and repair credential assignments.

The pipeline is parse -> validate -> verify -> repair:

* `sysmodel` holds the concrete system (rooms, doors, devices, links, users);
* `policy` holds the RBAC specification and flattens it to allowed/denied
  action triples;
* `automata` builds credential-labelled reachability automata;
* `enabling` turns them into monotone credential formulas per action;
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
from .enabling import (
    BoolExpr,
    Dnf,
    enabling_function,
    enabling_functions,
    enabling_sets,
    evaluate,
    event_expr,
    tokenize,
)
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
from .repair import (
    CnfFormula,
    RepairConstraint,
    RepairResult,
    RepairSolution,
    SolveResult,
    build_constraint,
    repair_all,
    repair_user,
    solve_all,
    to_cnf,
)
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
    network_path,
    root_device,
    validate,
)

__version__ = "0.1.0"
