"""Textual syntax for system models (.ins) and policies (.rbac).

One compiled regular expression reads a whole file with one `findall` call.
Each match skips blanks and `//` comments, then takes one token: an
identifier (a letter or `_`, then letters, digits or `_`), a number (decimal
digits, the Unicode ones `int` reads included), a quoted string with its
quotes (it may span lines), punctuation, or else one character that starts
no token, or the end of the text.  The recursive-descent parser reads these
token strings and tells them apart by their first character; a string keeps
its quotes, so it never equals a keyword.  Valid text never has a position
worked out.  When any check fails, the parser scans the text again with
`_tokenize`, which keeps each token's kind and offset.  That scan raises for
a character that starts no token, so such a character is reported ahead of
an earlier syntax error; otherwise the failing token's offset is read by its
index, and turned into a line and column.  Both scans take time linear in
the text.

A parsed model holds each name and each set once.  Every spelling of a
name is one string per file, and every distinct frozenset the parser builds
(a credential or member set, a role's permissions, a link's endpoints, the
model's own collections) is one object per file, kept in the parser's
tables and dropped with them.  Every empty set, an absent `requires` and
an absent role clause included, is the one module-level `_EMPTY`: CPython
3.11 builds a new empty frozenset on every call.  Sets are immutable and
are compared by value, so sharing changes no result.
"""

from __future__ import annotations

import re
import sys
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
_PUNCT = frozenset("<-> -> -- ; , { } ( ) . < /".split())

# Blanks and comments as an unrolled loop (Friedl, *Mastering Regular
# Expressions*, ch. 6): a run of blanks, then each comment with the run of
# blanks after it.  The token group always matches right after the maximal
# skip, its last two alternatives being any one character and the end of
# the text, so the engine never backtracks into the skip or re-enters it,
# and `findall`, which searches, never passes over a character.  An
# identifier that starts with an ASCII letter or `_` is read by the first
# alternative; any other first character is checked when it is read: `\w`
# also admits non-letters such as `²`.
_SKIP = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_TOKEN = re.compile(_SKIP + r'([A-Za-z_]\w*|[^\W\d]\w*|\d+|"[^"]*"|<->|->|--|[;,{}().</]|.|\Z)')

_EMPTY: frozenset = frozenset()


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
    """The tokens with their kinds and offsets, the last one eof; raises at
    the first character that starts no token."""
    tokens = []
    for match in _TOKEN.finditer(text):
        value, offset = match[1], match.start(1)
        first = value[:1]
        if first == '"' and len(value) > 1:
            tokens.append(("string", value[1:-1], offset + 1))
        elif first.isdecimal():
            tokens.append(("number", value, offset))
        elif first.isalpha() or first == "_":
            tokens.append(("ident", value, offset))
        elif value in _PUNCT:
            tokens.append(("punct", value, offset))
        elif value:
            span = _source_span(text, file, offset)
            if value == '"':
                raise ParseError(span, "closing '\"'", "end of input")
            raise ParseError(span, "a token", f"'{first}'")
        else:
            break
    # The last match is the end of the text, and starts right after the last
    # token.  The end's offset stays at the start of a trailing comment,
    # which reads as the end of input.
    tail = match.start()
    comment = text.find("//", max(tail, text.rfind("\n", tail) + 1))
    tokens.append(("eof", "", comment if comment >= 0 else len(text)))
    return tokens


class _Parser:
    """Reads the token strings of one `findall`; "" is the end of the text."""

    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        # Each checked identifier's one string and each distinct set's one
        # frozenset, `_EMPTY` for the empty one, so that equal values in the
        # model are the same object; a table that outlived the parser, such
        # as `sys.intern`'s, would keep them past the model's life.
        self.names: dict[str, str] = {}
        self.sets: dict[frozenset, frozenset] = {_EMPTY: _EMPTY}

    def fail(self, expected: str, at: int | None = None, found: str | None = None):
        """Raises the error of the token at index `at`, the current one by
        default, unless the offset scan raises first."""
        token = _tokenize(self.text, self.file)[self.pos if at is None else at]
        if found is None:
            found = "end of input" if token[0] == "eof" else f"'{token[1]}'"
        raise ParseError(_token_span(self.text, self.file, token), expected, found)

    def accept(self, text: str) -> bool:
        """Step over a keyword or punctuation spelled `text`."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str):
        if self.tokens[self.pos] != text:
            self.fail(f'"{text}"')
        self.pos += 1

    def expect_ident(self) -> str:
        token = self.tokens[self.pos]
        name = self.names.get(token)
        if name is None:
            if not (token[:1].isalpha() or token[:1] == "_") or token in KEYWORDS:
                self.fail("identifier")
            name = self.names[token] = token
        self.pos += 1
        return name

    def expect_number(self) -> int:
        token = self.tokens[self.pos]
        if not token.isdecimal():
            self.fail("a number")
        try:
            number = int(token)
        except ValueError:  # more digits than `int` converts
            self.fail(f"a number of at most {sys.get_int_max_str_digits()} digits",
                      found=f"{len(token)} digits")
        self.pos += 1
        return number

    def expect_string(self) -> str:
        token = self.tokens[self.pos]
        if token[:1] != '"' or len(token) < 2:
            self.fail("a quoted string")
        self.pos += 1
        return token[1:-1]

    def shared(self, items) -> frozenset:
        """The file's one frozenset equal to the set of `items`."""
        found = frozenset(items)
        return self.sets.setdefault(found, found)

    def name_set(self) -> frozenset[str]:
        self.expect("{")
        if self.accept("}"):
            return _EMPTY
        items = [self.expect_ident()]
        while self.accept(","):
            items.append(self.expect_ident())
        self.expect("}")
        return self.shared(items)

    def new_name(self, kind: str, seen) -> str:
        """An identifier that is not yet in `seen`."""
        at = self.pos
        name = self.expect_ident()
        if name in seen:
            self.duplicate(kind, name, at)
        return name

    def duplicate(self, kind: str, name: str, at: int):
        self.fail(f"a new {kind} name", at, f"duplicate '{name}'")


def parse_system(text: str, filename: str = "<string>") -> SystemModel:
    """Parse a .ins file; only syntax is checked here (run validate() after)."""
    p = _Parser(text, filename)
    tokens = p.tokens
    credentials: set[str] = set()
    zones: dict[str, Zone] = {}
    doors: set[DoorRule] = set()
    devices: dict[str, Device] = {}
    links: set[Link] = set()
    users: dict[str, User] = {}

    while keyword := tokens[p.pos]:
        p.pos += 1
        if keyword == "device":
            device = _parse_device(p, devices)
            devices[device.id] = device
        elif keyword == "credential":
            credentials.add(p.new_name("credential", credentials))
            p.expect(";")
        elif keyword == "zone":
            name = p.new_name("zone", zones)
            zones[name] = Zone(name, p.accept("external"))
            p.expect(";")
        elif keyword == "door":
            door_id = p.expect_ident()
            src = p.expect_ident()
            if p.accept("->"):
                both = False
            elif p.accept("<->"):
                both = True
            else:
                p.fail('"->" or "<->"')
            dst = p.expect_ident()
            required = p.name_set() if p.accept("requires") else _EMPTY
            p.expect(";")
            doors.add(DoorRule(door_id, src, dst, required))
            if both:
                doors.add(DoorRule(door_id, dst, src, required))
        elif keyword == "link":
            a = p.expect_ident()
            p.expect("--")
            b = p.expect_ident()
            p.expect(";")
            links.add(Link(p.shared((a, b))))
        elif keyword == "user":
            at = p.pos
            name = p.expect_ident()
            p.expect("at")
            zone = p.expect_ident()
            p.expect("credentials")
            creds = p.name_set()
            p.expect(";")
            if name in users:
                p.duplicate("user", name, at)
            users[name] = User(name, zone, creds)
        else:
            p.fail('a declaration ("credential", "zone", "door", "device", "link" or "user")', p.pos - 1)

    return SystemModel(
        credentials=p.shared(credentials),
        zones=zones,
        doors=p.shared(doors),
        devices=devices,
        links=p.shared(links),
        users=users,
    )


def _parse_device(p: _Parser, devices: dict[str, Device]) -> Device:
    tokens = p.tokens
    dev_id = p.new_name("device", devices)
    p.expect("in")
    zone = p.expect_ident()
    hosts = []
    while p.accept("/"):
        hosts.append(p.expect_ident())
    switch = p.accept("switch")
    p.expect("{")

    ports: dict[str, Port] = {}
    groups: dict[str, frozenset[str]] = {}
    operations: dict[str, tuple[OperationVariant, ...]] = {}
    while (keyword := tokens[p.pos]) != "}":
        p.pos += 1
        if keyword == "operation":
            op_name = p.new_name("operation", operations)
            p.expect("{")
            variants = []
            while not p.accept("}"):
                variants.append(_parse_variant(p, dev_id))
            operations[op_name] = tuple(variants)
        elif keyword == "port":
            pid = p.new_name("port", ports)
            p.expect("mac")
            mac = p.expect_string()
            p.expect("ip")
            ip = p.expect_string()
            p.expect(";")
            ports[pid] = Port(mac, ip)
        elif keyword == "group":
            gid = p.new_name("group", groups)
            groups[gid] = p.name_set()
        elif keyword == "filters":
            p.expect("{")
            p.expect("}")
        else:
            p.fail('"port", "group", "operation", "filters" or "}"', p.pos - 1)
    p.pos += 1

    return Device(
        id=dev_id,
        location=Location(zone, tuple(hosts)),
        switch=switch,
        ports=ports,
        groups=groups,
        operations=operations,
    )


def _parse_variant(p: _Parser, dev_id: str) -> OperationVariant:
    p.expect("when")
    kind = p.tokens[p.pos]
    p.pos += 1
    if kind == "phy_acc":
        pre = PhyAcc()
    elif kind == "loc_acc":
        p.expect("(")
        first = p.expect_ident()
        if p.accept("."):
            pre = LocAcc(first, p.expect_ident())
        else:
            pre = LocAcc(dev_id, first)
        p.expect(")")
    elif kind == "rem_acc":
        p.expect("(")
        if p.accept("tcp"):
            proto = "tcp"
        elif p.accept("udp"):
            proto = "udp"
        else:
            p.fail('"tcp" or "udp"')
        p.expect(",")
        port = p.expect_number()
        p.expect(")")
        pre = RemAcc(proto, port)
    else:
        p.fail('"phy_acc", "loc_acc" or "rem_acc"', p.pos - 1)
    required = p.name_set() if p.accept("requires") else _EMPTY
    effect = None
    if p.accept("becomes"):
        effect = BecomesAccount(dev_id, p.expect_ident())
    p.expect(";")
    return OperationVariant(pre, required, effect)


def parse_policy(text: str, filename: str = "<string>") -> PolicySpec:
    p = _Parser(text, filename)
    tokens = p.tokens
    roles: dict[str, Role] = {}
    hierarchy: set[tuple[str, str]] = set()
    while keyword := tokens[p.pos]:
        p.pos += 1
        if keyword == "role":
            rid = p.new_name("role", roles)
            p.expect("{")
            allowed: frozenset[Permission] = _EMPTY
            denied: frozenset[Permission] = _EMPTY
            members: frozenset[str] = _EMPTY
            if p.accept("allow"):
                allowed = _parse_perm_list(p)
                p.expect(";")
            if p.accept("deny"):
                denied = _parse_perm_list(p)
                p.expect(";")
            if p.accept("users"):
                members = p.name_set()
            p.expect("}")
            roles[rid] = Role(rid, allowed, denied, members)
        elif keyword == "hierarchy":
            lo = p.expect_ident()
            p.expect("<")
            hi = p.expect_ident()
            p.expect(";")
            hierarchy.add((lo, hi))
        else:
            p.fail('"role" or "hierarchy"', p.pos - 1)
    return PolicySpec(roles=roles, hierarchy=p.shared(hierarchy))


def _parse_perm_list(p: _Parser) -> frozenset[Permission]:
    perms = [_parse_perm(p)]
    while p.accept(","):
        perms.append(_parse_perm(p))
    return p.shared(perms)


def _parse_perm(p: _Parser) -> Permission:
    p.expect("(")
    op = p.expect_ident()
    p.expect(",")
    ob = p.expect_ident()
    p.expect(")")
    return Permission(op, ob)
