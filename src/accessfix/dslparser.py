"""Textual syntax for system models (.ins) and policies (.rbac).

One compiled regular expression scans a whole file into `(kind, text,
offset)` tuples before a recursive-descent parser reads them.  Each match
skips blanks and `//` comments, then takes one token: an identifier (a letter
or `_`, then letters, digits or `_`), a number (decimal digits, the Unicode
ones `int` reads included), a quoted string (which may span lines), or
punctuation.  The scan takes time linear in the text.  It stops at a
character that starts no token, and since it runs before parsing, that
character is reported ahead of an earlier syntax error.  Line and column
are worked out from the offset only when a `ParseError` is raised.
Canonical printers sort declarations by kind and id, so print-parse-print is
byte-idempotent and parse(print(x)) is structurally equal to x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .policy import Permission, PolicySpec, Role
from .sysmodel import (
    BecomesAccount,
    Device,
    DoorRule,
    Link,
    LocAcc,
    Location,
    OperationVariant,
    PhyAcc,
    Port,
    RemAcc,
    SystemModel,
    User,
    Zone,
)

KEYWORDS = frozenset(
    """
    credential zone external door requires device in switch port mac ip
    group operation when phy_acc loc_acc rem_acc tcp udp becomes link
    filters user at credentials role allow deny users hierarchy
    """.split()
)

# Blanks and comments, each matched in exactly one way, so the engine's
# backtracking after the last token (at the end of the text, or at a
# character that starts no token) is linear in what it skipped.  A run of
# blanks is maximal, and a comment ends only at a newline or the end of the
# text: a run that could stop anywhere would let the engine try every split
# of the blanks, and a comment that could stop early would let it lex the
# comment's tail.  For the same reason a `/` token is never followed by `/`.
_SKIP = r"(?:[ \t\r\n]+(?![ \t\r\n])|//[^\n]*(?![^\n]))*"
_BLANKS = re.compile(_SKIP)
_TOKEN = re.compile(
    _SKIP
    + r"(?:(?P<ident>[^\W\d]\w*)"
    r"|(?P<number>\d+)"
    r'|"(?P<string>[^"]*)"'
    r"|(?P<punct><->|->|--|[;,{}().<]|/(?!/)))"
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1


class ParseError(Exception):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(str(self))

    def __str__(self) -> str:
        return (
            f"{self.span.file}:{self.span.line}:{self.span.column}: "
            f"expected {self.expected}, found {self.found}"
        )


def _source_span(text: str, file: str, offset: int, length: int = 1) -> SourceSpan:
    """The 1-based line and column of `offset` in `text`."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(file, text.count("\n", 0, line_start) + 1, offset - line_start + 1, length)


# (kind, text, offset of the text): the kind is ident, number, string, punct
# or eof, and a string's text starts after its opening quote.
Token = tuple[str, str, int]


def _token_span(text: str, file: str, token: Token) -> SourceSpan:
    kind, value, offset = token
    start = offset - 1 if kind == "string" else offset
    return _source_span(text, file, start, max(len(value), 1))


def _tokenize(text: str, file: str) -> list[Token]:
    # The scan stops at the first character that starts no token, or at the
    # blanks and comments that end the text.
    tokens = [
        (m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
        for m in iter(_TOKEN.scanner(text).match, None)
    ]
    tail = 0
    if tokens:
        kind, value, offset = tokens[-1]
        tail = offset + len(value) + (kind == "string")
    stop = _BLANKS.match(text, tail).end()
    if not text.isascii():
        # `\w` also admits non-letters such as `²` as an identifier's first
        # character; only text outside ASCII can hold one.
        for kind, value, offset in tokens:
            if kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
                stop = offset
                break
    if stop < len(text):
        span = _source_span(text, file, stop)
        if text[stop] == '"':
            raise ParseError(span, "closing '\"'", "end of input")
        raise ParseError(span, "a token", f"'{text[stop]}'")
    # At the end of the text the offset stays at the start of a trailing
    # comment, which reads as the end of input.
    comment = text.find("//", max(tail, text.rfind("\n", tail) + 1))
    tokens.append(("eof", "", comment if comment >= 0 else len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.tokens = _tokenize(text, file)
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def fail(self, expected: str, token: Token | None = None):
        token = token or self.current
        found = "end of input" if token[0] == "eof" else f"'{token[1]}'"
        raise ParseError(_token_span(self.text, self.file, token), expected, found)

    def accept_keyword(self, word: str) -> bool:
        token = self.tokens[self.pos]
        if token[1] == word and token[0] == "ident":
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str):
        if not self.accept_keyword(word):
            self.fail(f'"{word}"')

    def accept_punct(self, punct: str) -> bool:
        token = self.tokens[self.pos]
        if token[1] == punct and token[0] == "punct":
            self.pos += 1
            return True
        return False

    def expect_punct(self, punct: str):
        if not self.accept_punct(punct):
            self.fail(f'"{punct}"')

    def expect_ident(self, what: str = "identifier") -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "ident" or text in KEYWORDS:
            self.fail(what)
        self.pos += 1
        return text

    def expect_number(self) -> int:
        kind, text, _ = self.tokens[self.pos]
        if kind != "number":
            self.fail("a number")
        self.pos += 1
        return int(text)

    def expect_string(self) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "string":
            self.fail("a quoted string")
        self.pos += 1
        return text

    def name_set(self) -> frozenset[str]:
        self.expect_punct("{")
        items = []
        if not self.accept_punct("}"):
            items.append(self.expect_ident())
            while self.accept_punct(","):
                items.append(self.expect_ident())
            self.expect_punct("}")
        return frozenset(items)

    def duplicate(self, kind: str, name: str, token: Token):
        span = _token_span(self.text, self.file, token)
        raise ParseError(span, f"a new {kind} name", f"duplicate '{name}'")


def parse_system(text: str, filename: str = "<string>") -> SystemModel:
    """Parse a .ins file; only syntax is checked here (run validate() after)."""
    p = _Parser(text, filename)
    credentials: set[str] = set()
    zones: dict[str, Zone] = {}
    doors: set[DoorRule] = set()
    devices: dict[str, Device] = {}
    links: set[Link] = set()
    users: dict[str, User] = {}

    while p.current[0] != "eof":
        if p.accept_keyword("credential"):
            token = p.current
            name = p.expect_ident()
            if name in credentials:
                p.duplicate("credential", name, token)
            credentials.add(name)
            p.expect_punct(";")
        elif p.accept_keyword("zone"):
            token = p.current
            name = p.expect_ident()
            external = p.accept_keyword("external")
            if name in zones:
                p.duplicate("zone", name, token)
            zones[name] = Zone(name, external)
            p.expect_punct(";")
        elif p.accept_keyword("door"):
            door_id = p.expect_ident()
            src = p.expect_ident()
            if p.accept_punct("->"):
                both = False
            elif p.accept_punct("<->"):
                both = True
            else:
                p.fail('"->" or "<->"')
            dst = p.expect_ident()
            required = p.name_set() if p.accept_keyword("requires") else frozenset()
            p.expect_punct(";")
            doors.add(DoorRule(door_id, src, dst, required))
            if both:
                doors.add(DoorRule(door_id, dst, src, required))
        elif p.accept_keyword("device"):
            device = _parse_device(p, devices)
            devices[device.id] = device
        elif p.accept_keyword("link"):
            a = p.expect_ident()
            p.expect_punct("--")
            b = p.expect_ident()
            p.expect_punct(";")
            links.add(Link(frozenset((a, b))))
        elif p.accept_keyword("user"):
            token = p.current
            name = p.expect_ident()
            p.expect_keyword("at")
            zone = p.expect_ident()
            p.expect_keyword("credentials")
            creds = p.name_set()
            p.expect_punct(";")
            if name in users:
                p.duplicate("user", name, token)
            users[name] = User(name, zone, creds)
        else:
            p.fail('a declaration ("credential", "zone", "door", "device", "link" or "user")')

    return SystemModel(
        credentials=frozenset(credentials),
        zones=zones,
        doors=frozenset(doors),
        devices=devices,
        links=frozenset(links),
        users=users,
    )


def _parse_device(p: _Parser, devices: dict[str, Device]) -> Device:
    token = p.current
    dev_id = p.expect_ident()
    if dev_id in devices:
        p.duplicate("device", dev_id, token)
    p.expect_keyword("in")
    zone = p.expect_ident()
    hosts = []
    while p.accept_punct("/"):
        hosts.append(p.expect_ident())
    switch = p.accept_keyword("switch")
    p.expect_punct("{")

    ports: dict[str, Port] = {}
    groups: dict[str, frozenset[str]] = {}
    operations: dict[str, tuple[OperationVariant, ...]] = {}
    while not p.accept_punct("}"):
        if p.accept_keyword("port"):
            ptoken = p.current
            pid = p.expect_ident()
            if pid in ports:
                p.duplicate("port", pid, ptoken)
            p.expect_keyword("mac")
            mac = p.expect_string()
            p.expect_keyword("ip")
            ip = p.expect_string()
            p.expect_punct(";")
            ports[pid] = Port(pid, mac, ip, dev_id)
        elif p.accept_keyword("group"):
            gtoken = p.current
            gid = p.expect_ident()
            if gid in groups:
                p.duplicate("group", gid, gtoken)
            groups[gid] = p.name_set()
        elif p.accept_keyword("operation"):
            otoken = p.current
            op_name = p.expect_ident()
            if op_name in operations:
                p.duplicate("operation", op_name, otoken)
            p.expect_punct("{")
            variants = []
            while not p.accept_punct("}"):
                variants.append(_parse_variant(p, dev_id))
            operations[op_name] = tuple(variants)
        elif p.accept_keyword("filters"):
            p.expect_punct("{")
            p.expect_punct("}")
        else:
            p.fail('"port", "group", "operation", "filters" or "}"')

    return Device(
        id=dev_id,
        location=Location(zone, tuple(hosts)),
        switch=switch,
        ports=ports,
        groups=groups,
        operations=operations,
    )


def _parse_variant(p: _Parser, dev_id: str) -> OperationVariant:
    p.expect_keyword("when")
    if p.accept_keyword("phy_acc"):
        pre = PhyAcc()
    elif p.accept_keyword("loc_acc"):
        p.expect_punct("(")
        first = p.expect_ident()
        if p.accept_punct("."):
            pre = LocAcc(first, p.expect_ident())
        else:
            pre = LocAcc(dev_id, first)
        p.expect_punct(")")
    elif p.accept_keyword("rem_acc"):
        p.expect_punct("(")
        if p.accept_keyword("tcp"):
            proto = "tcp"
        elif p.accept_keyword("udp"):
            proto = "udp"
        else:
            p.fail('"tcp" or "udp"')
        p.expect_punct(",")
        port = p.expect_number()
        p.expect_punct(")")
        pre = RemAcc(proto, port)
    else:
        p.fail('"phy_acc", "loc_acc" or "rem_acc"')
    required = p.name_set() if p.accept_keyword("requires") else frozenset()
    effect = None
    if p.accept_keyword("becomes"):
        effect = BecomesAccount(dev_id, p.expect_ident())
    p.expect_punct(";")
    return OperationVariant(pre, required, effect)


def parse_policy(text: str, filename: str = "<string>") -> PolicySpec:
    p = _Parser(text, filename)
    roles: dict[str, Role] = {}
    hierarchy: set[tuple[str, str]] = set()
    while p.current[0] != "eof":
        if p.accept_keyword("role"):
            token = p.current
            rid = p.expect_ident()
            if rid in roles:
                p.duplicate("role", rid, token)
            p.expect_punct("{")
            allowed: frozenset[Permission] = frozenset()
            denied: frozenset[Permission] = frozenset()
            members: frozenset[str] = frozenset()
            if p.accept_keyword("allow"):
                allowed = _parse_perm_list(p)
                p.expect_punct(";")
            if p.accept_keyword("deny"):
                denied = _parse_perm_list(p)
                p.expect_punct(";")
            if p.accept_keyword("users"):
                members = p.name_set()
            p.expect_punct("}")
            roles[rid] = Role(rid, allowed, denied, members)
        elif p.accept_keyword("hierarchy"):
            lo = p.expect_ident()
            p.expect_punct("<")
            hi = p.expect_ident()
            p.expect_punct(";")
            hierarchy.add((lo, hi))
        else:
            p.fail('"role" or "hierarchy"')
    return PolicySpec(roles=roles, hierarchy=frozenset(hierarchy))


def _parse_perm_list(p: _Parser) -> frozenset[Permission]:
    perms = [_parse_perm(p)]
    while p.accept_punct(","):
        perms.append(_parse_perm(p))
    return frozenset(perms)


def _parse_perm(p: _Parser) -> Permission:
    p.expect_punct("(")
    op = p.expect_ident()
    p.expect_punct(",")
    ob = p.expect_ident()
    p.expect_punct(")")
    return Permission(op, ob)


def _fmt_cred_set(creds: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(creds)) + "}"


def print_system(model: SystemModel) -> str:
    """Canonical text form: declarations sorted by kind then id."""
    out: list[str] = []
    for name in sorted(model.credentials):
        out.append(f"credential {name};")
    if model.credentials:
        out.append("")
    for zid in sorted(model.zones):
        zone = model.zones[zid]
        out.append(f"zone {zid} external;" if zone.external else f"zone {zid};")
    if model.zones:
        out.append("")
    for rule in sorted(model.doors, key=lambda r: (r.door, r.src, r.dst)):
        req = f" requires {_fmt_cred_set(rule.required)}" if rule.required else ""
        out.append(f"door {rule.door} {rule.src} -> {rule.dst}{req};")
    if model.doors:
        out.append("")
    for dev_id in sorted(model.devices):
        out.extend(_print_device(model.devices[dev_id]))
        out.append("")
    for link in sorted(model.links, key=lambda l: tuple(sorted(l.endpoints))):
        ends = sorted(link.endpoints)
        pair = ends if len(ends) == 2 else ends * 2
        out.append(f"link {pair[0]} -- {pair[1]};")
    if model.links:
        out.append("")
    for uid in sorted(model.users):
        user = model.users[uid]
        out.append(
            f"user {uid} at {user.initial_zone} credentials {_fmt_cred_set(user.credentials)};"
        )
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n" if out else ""


def _print_device(dev: Device) -> list[str]:
    path = "/".join((dev.location.zone,) + dev.location.hosts)
    switch = " switch" if dev.switch else ""
    out = [f"device {dev.id} in {path}{switch} {{"]
    for pid in sorted(dev.ports):
        port = dev.ports[pid]
        out.append(f'    port {pid} mac "{port.mac}" ip "{port.ip}";')
    for gid in sorted(dev.groups):
        members = ", ".join(sorted(dev.groups[gid]))
        inner = f" {members} " if members else ""
        out.append(f"    group {gid} {{{inner}}}")
    for op_name in sorted(dev.operations):
        out.append(f"    operation {op_name} {{")
        for variant in dev.operations[op_name]:
            out.append(f"        {_print_variant(dev.id, variant)}")
        out.append("    }")
    out.append("}")
    return out


def _print_variant(dev_id: str, variant: OperationVariant) -> str:
    pre = variant.precondition
    if isinstance(pre, PhyAcc):
        text = "when phy_acc"
    elif isinstance(pre, LocAcc):
        inner = pre.group if pre.device == dev_id else f"{pre.device}.{pre.group}"
        text = f"when loc_acc({inner})"
    elif isinstance(pre, RemAcc):
        text = f"when rem_acc({pre.protocol}, {pre.port})"
    else:
        raise ValueError(f"unprintable precondition {pre!r}")
    if variant.required:
        text += f" requires {_fmt_cred_set(variant.required)}"
    if variant.effect is not None:
        if variant.effect.device != dev_id:
            raise ValueError("the textual syntax cannot express cross-device effects")
        text += f" becomes {variant.effect.account}"
    return text + ";"


def print_policy(policy: PolicySpec) -> str:
    out: list[str] = []
    for rid in sorted(policy.roles):
        role = policy.roles[rid]
        out.append(f"role {rid} {{")
        if role.allowed:
            perms = ", ".join(f"({p.operation}, {p.object})" for p in sorted(role.allowed))
            out.append(f"    allow {perms};")
        if role.denied:
            perms = ", ".join(f"({p.operation}, {p.object})" for p in sorted(role.denied))
            out.append(f"    deny {perms};")
        if role.users:
            out.append(f"    users {{ {', '.join(sorted(role.users))} }}")
        out.append("}")
        out.append("")
    for lo, hi in sorted(policy.hierarchy):
        out.append(f"hierarchy {lo} < {hi};")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n" if out else ""
