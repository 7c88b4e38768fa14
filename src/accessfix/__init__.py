"""accessfix: verify RBAC policy implementations and repair credential assignments.

The pipeline is parse -> validate -> verify -> repair:

* `sysmodel` holds the concrete system (rooms, doors, devices, links, users);
* `policy` holds the RBAC specification and flattens it to allowed/denied
  action triples (`spec_sets`), one walk of the role hierarchy per role;
* `facts` compiles the system into single-premise rules over zone, session
  and network-class facts, the one reading of its doors, variants and
  preconditions, and `facts.guarded_rules` is the one way from a model to
  them: it validates the model, compiles it and runs the ambiguity guard.
  Under fixed credential sets the rules give the reachable actions in one
  walk, one bit per set, for the verdict and for repair's re-checks, and
  the repair search saturates them into one monotone credential formula
  per action, its enabling function, kept as an antichain of bitmasks over
  the rules' one credential index.  The paper's credential-labelled
  reachability automaton of a user holding every credential is read off
  the same rules as their state product (`build_super_automaton`), which
  `accessfix automaton` prints and the ambiguity guard builds; the tests
  hold it to a reference builder that evaluates every precondition in
  every state, and restrict that to each user's credentials, the paper's
  per-user automaton, as the independent route that holds the compiled
  rules to the paper's semantics;
* `enabling` holds the forward pass that computes those antichains,
  taking credential sets smallest first so that no kept set is displaced,
  the index's encoder and its one decoder (`credential_names`), and `Dnf`,
  the printed form of a function over names, which nothing computes with;
* `automata` holds the automaton's events and states, `Automaton`, the
  record of the table the state product builds, and its DOT rendering;
  its `ReducedEvent`, an action, is also the policy's `Permission`;
* `analysis` holds the first two of the three stages the command line
  runs: `prepare`, the one way a policy enters, and `anomalies`, which
  compares every user's implemented actions with the policy; `verify` runs
  the two in turn;
* `repair` holds the third, `repair_users`, which searches credential
  assignments that remove every anomaly, saturating the prepared rules once
  per start zone, and lists each user's best ones as `RepairSolution`
  named tuples (credentials, a tuple of names in name order; minimal;
  distance) in a `RepairResult` named tuple; `repair_all` runs `prepare`
  and then `repair_users`;
* `dslparser` parses the textual formats, and `cli` is the command line.
"""

from .analysis import (
    AnomalyReport,
    anomalies,
    prepare,
    users_by_zone,
    verify,
)
from .automata import (
    EPSILON,
    Automaton,
    ExtendedEvent,
    ReducedEvent,
    Session,
    SuperState,
    to_dot,
)
from .dslparser import ParseError, SourceSpan, parse_policy, parse_system
from .enabling import Dnf, credential_mask, credential_names, enabling_functions
from .facts import (
    build_super_automaton,
    compile_rules,
    guarded_rules,
    may_be_ambiguous,
    reachable_each,
    saturate,
)
from .policy import (
    Permission,
    PolicyError,
    PolicyInconsistent,
    PolicySpec,
    Role,
    SpecSets,
    spec_sets,
    validate_policy,
)
from .repair import RepairResult, RepairSolution, repair_all, repair_users
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
    root_device,
    validate,
)

__version__ = "0.1.0"
