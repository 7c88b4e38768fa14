"""Workload generators: the replicated plant and the random-model corpus."""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import Oracle
from spec import Device, Door, Model, Policy, RoleSpec, UserSpec, Variant, render_policy, render_system


def plant_cells(cells: int) -> tuple[Model, Policy]:
    """The paper's plant copied into `cells` cells.

    Every cell has its own zones A/B, devices, credentials, two users and two
    roles; all cells share the external zone O, and switch SW<i> is cabled to
    SW<i+1>.  At one cell this is the paper's plant with each name suffixed
    by 0.
    """
    creds, zones, doors, devices, links, users = [], ["O"], [], {}, [], {}
    roles, hierarchy = {}, []
    for i in range(cells):
        k_oa, k_ab = f"K_OA{i}", f"K_AB{i}"
        pc_tom, pc_amy, plc_usr = f"c_PCTom{i}", f"c_PCAmy{i}", f"c_PLCusr{i}"
        igs_usr, igs_adm, mbsl_adm = f"c_IGSusr{i}", f"c_IGSadm{i}", f"c_MBSLadm{i}"
        creds += [k_oa, k_ab, pc_tom, pc_amy, plc_usr, igs_usr, igs_adm, mbsl_adm]
        a, b = f"A{i}", f"B{i}"
        pc, plc, igs, mbsl, sw = f"PC{i}", f"PLC{i}", f"IGS{i}", f"MBSL{i}", f"SW{i}"
        zones += [a, b]
        doors += [
            Door(f"d_OA{i}", "O", a, (k_oa,)),
            Door(f"d_OA{i}", a, "O"),
            Door(f"d_AB{i}", a, b, (k_ab,)),
            Door(f"d_AB{i}", b, a, (k_ab,)),
        ]
        devices[pc] = Device(
            pc, a, ports=[f"pp_PC{i}"], groups={"usr": ("u_Tom", "u_Amy")},
            ops={"login": (
                Variant(("phy",), (pc_tom,), "u_Tom"),
                Variant(("phy",), (pc_amy,), "u_Amy"),
            )},
        )
        devices[plc] = Device(
            plc, b, ports=[f"pp_PLC{i}"], groups={"usr": ("u_user",)},
            ops={
                "login": (
                    Variant(("phy",), (plc_usr,), "u_user"),
                    Variant(("rem", "tcp", 22), (plc_usr,), "u_user"),
                ),
                "admin": (Variant(("loc", plc, "usr")),),
            },
        )
        devices[igs] = Device(
            igs, b, hosts=(plc,),
            ops={
                "run": (
                    Variant(("loc", plc, "usr"), (igs_usr,)),
                    Variant(("rem", "udp", 12001), (igs_usr,)),
                ),
                "admin": (Variant(("loc", plc, "usr"), (igs_adm,)),),
            },
        )
        devices[mbsl] = Device(
            mbsl, b, ports=[f"pp_MBSL{i}"],
            ops={
                "run": (Variant(("rem", "tcp", 532)),),
                "admin": (Variant(("rem", "tcp", 8080), (mbsl_adm,)),),
            },
        )
        devices[sw] = Device(sw, b, switch=True, ports=[f"sp{i}_{j}" for j in range(1, 6)])
        links += [(f"pp_PC{i}", f"sp{i}_1"), (f"pp_PLC{i}", f"sp{i}_2"), (f"pp_MBSL{i}", f"sp{i}_3")]
        if i:
            links.append((f"sp{i - 1}_4", f"sp{i}_5"))
        tom, amy = f"Tom{i}", f"Amy{i}"
        users[tom] = UserSpec(tom, "O", frozenset([k_oa, k_ab, pc_tom, plc_usr, igs_usr]))
        users[amy] = UserSpec(amy, "O", frozenset([k_oa, k_ab, pc_amy, igs_adm, mbsl_adm]))
        runs = {("run", mbsl), ("run", igs)}
        admins = {("admin", mbsl), ("admin", igs), ("admin", plc)}
        roles[f"P_o{i}"] = RoleSpec(f"P_o{i}", frozenset(runs), frozenset(admins), frozenset([tom]))
        roles[f"P_s{i}"] = RoleSpec(f"P_s{i}", frozenset(runs | admins), frozenset(), frozenset([amy]))
        hierarchy.append((f"P_o{i}", f"P_s{i}"))
    model = Model(creds, "O", zones, doors, devices, links, users)
    return model, Policy(roles, hierarchy)


def plant_verdict(cells: int, repairs: bool) -> dict:
    """The paper's verdict copied to every cell: the operator may administer
    the PLC although denied, the supervisor lacks three allowed actions.
    With `repairs`, also the paper's repair counts within the users' own
    credentials: two for the operator, none for the supervisor."""
    forbidden, missing, counts = set(), set(), {}
    for i in range(cells):
        forbidden.add((f"Tom{i}", "admin", f"PLC{i}"))
        missing |= {(f"Amy{i}", "admin", f"IGS{i}"), (f"Amy{i}", "admin", f"PLC{i}"), (f"Amy{i}", "run", f"IGS{i}")}
        counts.update({f"Tom{i}": 2, f"Amy{i}": 0})
    verdict = {"forbidden": forbidden, "missing": missing, "dangling": set()}
    if repairs:
        verdict["repair_counts"] = counts
    return verdict


# ---------------------------------------------------------------------------
# Random-model corpus

SIZE_CLASSES = 80
MAX_STATES = 24

def _pick(rng, pool, top):
    pool = sorted(pool)
    return tuple(sorted(rng.sample(pool, rng.randint(0, min(top, len(pool)))))) if pool else ()


def random_model(rng: random.Random, size: int | None = None, *, mixed_effects: bool = False) -> Model:
    """A small valid model with exactly two users in random start zones.

    `size` (0 to 79) fixes the numbers of credentials (1-5), zones (1-4) and
    devices (1-4); otherwise they are random.  Unless `mixed_effects` is
    set, all variants of one operation open the same account (or none), so
    no state can have two transitions with the same label and different
    targets.  Models whose automaton from some zone exceeds MAX_STATES are
    drawn again: the state explosion is `plant-cells`' subject, and one such
    model can cost more than the rest of the corpus together.
    """
    while True:
        model = _random_model(rng, size, mixed_effects)
        if Oracle(model).max_states() <= MAX_STATES:
            return model


def _random_model(rng, size, mixed_effects) -> Model:
    if size is None:
        size = rng.randrange(SIZE_CLASSES)
    creds = [f"c{i}" for i in range(1 + size % 5)]
    zones = [f"z{i}" for i in range(1 + size // 5 % 4)]
    doors = []
    if len(zones) > 1:
        for i in range(rng.randint(1, 5)):
            src, dst = rng.sample(zones, 2)
            required = _pick(rng, creds, 2)
            doors.append(Door(f"dr{i}", src, dst, required))
            if rng.random() < 0.4:
                doors.append(Door(f"dr{i}", dst, src, required))

    devices: dict[str, Device] = {}
    all_ports = []
    for i in range(1 + size // 20):
        dev_id = f"d{i}"
        hostable = [d for d in devices.values() if not d.hosts and not d.switch]
        if hostable and rng.random() < 0.25:
            host = rng.choice(hostable)
            dev = Device(dev_id, host.zone, hosts=(host.id,))
        else:
            dev = Device(dev_id, rng.choice(zones), switch=rng.random() < 0.2)
            dev.ports = [f"p{i}_{j}" for j in range(rng.randint(0, 2) + dev.switch)]
            all_ports += dev.ports
        if not dev.switch:
            for j in range(rng.randint(0, 2)):
                dev.groups[f"g{j}"] = tuple(f"a{k}" for k in range(rng.randint(1, 2)))
            with_groups = [(d.id, sorted(d.groups)) for d in devices.values() if d.groups]
            if dev.groups:
                with_groups.append((dev_id, sorted(dev.groups)))
            for j in range(rng.randint(1, 2)):
                op_effect = None
                if dev.groups and rng.random() < 0.4:
                    op_effect = dev.groups[rng.choice(sorted(dev.groups))][0]
                variants = []
                for _ in range(rng.randint(1, 2)):
                    kind = rng.random()
                    if kind < 0.4 or (kind < 0.7 and not with_groups):
                        pre = ("phy",)
                    elif kind < 0.7:
                        target, groups = rng.choice(with_groups)
                        pre = ("loc", target, rng.choice(groups))
                    else:
                        pre = ("rem", rng.choice(("tcp", "udp")), rng.randint(1, 65535))
                    effect = op_effect
                    if mixed_effects and dev.groups and rng.random() < 0.5:
                        effect = dev.groups[rng.choice(sorted(dev.groups))][-1] if rng.random() < 0.7 else None
                    variants.append(Variant(pre, _pick(rng, creds, 2), effect))
                dev.ops[f"o{j}"] = tuple(variants)
        devices[dev_id] = dev

    links = set()
    if len(all_ports) > 1:
        for _ in range(rng.randint(1, 4)):
            a, b = sorted(rng.sample(all_ports, 2))
            links.add((a, b))

    users = {}
    for i in range(2):
        uid = f"u{i}"
        users[uid] = UserSpec(uid, rng.choice(zones), frozenset(_pick(rng, creds, len(creds))))
    return Model(creds, zones[0], zones, doors, devices, sorted(links), users)


def random_policy(rng: random.Random, model: Model) -> Policy:
    """A consistent policy over the model's own actions.

    The actions are split into an allow pool and a deny pool, so no user
    can end up both allowed and denied the same action whatever the
    hierarchy.
    """
    actions = sorted({("enter", d.dst) for d in model.doors} | {
        (op, dev.id) for dev in model.devices.values() for op in dev.ops
    })
    rng.shuffle(actions)
    cut = rng.randint(0, len(actions))
    allow_pool, deny_pool = actions[:cut], actions[cut:]
    role_ids = [f"r{i}" for i in range(rng.randint(1, 3))]
    roles = {}
    for rid in role_ids:
        allow = frozenset(_pick(rng, allow_pool, 3))
        deny = frozenset(_pick(rng, deny_pool, 3))
        roles[rid] = RoleSpec(rid, allow, deny, frozenset(_pick(rng, model.users, 2)))
    hierarchy = [
        (lo, hi) for i, lo in enumerate(role_ids) for hi in role_ids[i + 1:] if rng.random() < 0.3
    ]
    return Policy(roles, hierarchy)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Case:
    """One model and its policy, with the CLI arguments of its round."""

    name: str
    model: Model
    policy: Policy
    ins_text: str
    rbac_text: str
    eligibility: str
    known_fault: bool = False  # may fail on the ambiguous-transition defect
    paper: dict | None = None  # the paper's verdict, for the replicated plant
    # Verify calls per round.  Where one repair call takes seconds, several
    # verify calls per round spread verify's samples over the run.
    verify_calls: int = 1


# Every size class appears equally often, so the corpus has the same make-up
# on every seed and only the details inside each model vary.
CORPUS_SEEDED = 8 * SIZE_CLASSES
CORPUS_FAULTY = 6
# The faulty models come from this fixed generator seed, never from --seed,
# so their share of the corpus is the same on every run.
FAULTY_SOURCE_SEED = 20171009


def make_case(name, model, policy, eligibility, rng=None, **kwargs) -> Case:
    return Case(name, model, policy, render_system(model, rng), render_policy(policy, rng),
                eligibility, **kwargs)


def faulty_models(count: int) -> list[tuple[Model, Policy]]:
    """The first `count` mixed-effect models on which the oracle finds two
    transitions with one label and different targets."""
    rng = random.Random(FAULTY_SOURCE_SEED)
    found = []
    while len(found) < count:
        model = random_model(rng, mixed_effects=True)
        policy = random_policy(rng, model)
        if Oracle(model).ambiguous():
            found.append((model, policy))
    return found


def build(workload: str, seed: int) -> list[Case]:
    rng = random.Random(seed)
    if workload == "plant-cells":
        model, policy = plant_cells(3)
        return [make_case("plant3", model, policy, "current", rng, verify_calls=3,
                      paper=plant_verdict(3, repairs=True))]
    if workload == "warm-up":
        model, policy = plant_cells(1)
        return [make_case("plant1", model, policy, "current")]
    if workload == "repair-wide":
        # Fixed input: the capped-ranking fault must fail the same users on
        # every seed, so the seed does not reorder this plant.
        model, policy = plant_cells(2)
        return [make_case("plant2", model, policy, "all", verify_calls=10,
                      paper=plant_verdict(2, repairs=False))]
    if workload == "model-corpus":
        cases = []
        for k in range(CORPUS_SEEDED):
            model = random_model(rng, k % SIZE_CLASSES)
            cases.append(make_case(f"m{k:03d}", model, random_policy(rng, model), "all"))
        for k, (model, policy) in enumerate(faulty_models(CORPUS_FAULTY)):
            cases.append(make_case(f"f{k:03d}", model, policy, "all", known_fault=True))
        return cases
    raise ValueError(f"unknown workload '{workload}'")


WORKLOADS = ("plant-cells", "repair-wide", "model-corpus")
