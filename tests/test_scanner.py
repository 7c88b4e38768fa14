"""The compiled scanner against the per-character lexer it replaced.

`char_tokenize` (tests/oracles.py) reads one character at a time and keeps
line and column in every token; `_tokenize` matches one compiled regular
expression and keeps an offset, turned into a line and column by
`_token_span`.  On every input both must give the same token kinds, texts
and positions, or the same `ParseError`, except for two faults of the old
lexer: it did not count newlines inside a string, and it read a digit that
is not decimal (`²`) into a number that `int` cannot read.  The parsers read
the token strings of one `findall` and rescan with `_tokenize` only for an
error; `parse_golden.json` holds, as digests, what they make of every corpus
text and its mutations.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import accessfix
from accessfix import ParseError, SourceSpan, parse_policy, parse_system
from accessfix.dslparser import _token_span, _tokenize
from conftest import FIXTURES, plant_cells
from oracles import char_tokenize
from printers import print_policy, print_system
from randgen import random_model, random_policy

FILE = "f.ins"
MUTATION_ALPHABET = '"/\n\r\t-<>.@²½٣é '


def _new(text):
    """The scanner's tokens, each with its span, or its error."""
    try:
        tokens = _tokenize(text, FILE)
    except ParseError as exc:
        return None, exc
    return [(kind, value, _token_span(text, FILE, (kind, value, offset)))
            for kind, value, offset in tokens], None


def _counted(old_tokens):
    """The old tokens with newlines inside strings counted: (kinds, texts and
    spans), and the line shift and column fix in force after the last one."""
    out, shift, fix = [], 0, (0, 0)
    for t in old_tokens:
        column = t.column + (fix[1] if t.line == fix[0] else 0)
        out.append((t.kind, t.text, SourceSpan(FILE, t.line + shift, column, max(len(t.text), 1))))
        if t.kind == "string" and "\n" in t.text:
            shift += t.text.count("\n")
            # The old lexer went on after the closing quote as if still on
            # the string's first line.
            after = len(t.text) - t.text.rfind("\n") + 1
            fix = (t.line, after - (t.column + len(t.text) + 2))
    return out, shift, fix


def _offset(text, span):
    lines = text.split("\n")
    return sum(len(line) + 1 for line in lines[: span.line - 1]) + span.column - 1


def assert_same_tokens(text):
    """Holds the scanner to the per-character lexer on `text`."""
    tokens, error = _new(text)
    if error is None:
        old = char_tokenize(text, FILE)
        assert not [t for t in old if t.kind == "number" and not t.text.isdecimal()], text
        assert tokens == _counted(old)[0], text
        return
    at = _offset(text, error.span)
    # Both lexers agree up to the character the scanner stopped at.
    assert_same_tokens(text[:at])
    ch = text[at]
    if ch.isdigit() and not ch.isdecimal():
        last = char_tokenize(text[: at + 1], FILE)[-2]
        assert last.kind == "number" and last.text.endswith(ch), text
        assert (error.expected, error.found) == ("a token", f"'{ch}'"), text
        return
    with pytest.raises(ParseError) as old:
        char_tokenize(text, FILE)
    _, shift, fix = _counted(char_tokenize(text[:at], FILE)[:-1])
    span = old.value.span
    column = span.column + (fix[1] if span.line == fix[0] else 0)
    assert str(error) == str(ParseError(
        SourceSpan(FILE, span.line + shift, column), old.value.expected, old.value.found
    )), text


def _mutations(text, rng, count):
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        ch = rng.choice(MUTATION_ALPHABET)
        op = rng.randrange(3)
        if op == 0:
            yield text[:at] + ch + text[at:]
        elif op == 1:
            yield text[:at] + ch + text[at + 1 :]
        else:
            yield text[:at] + text[at + 1 :]


PARSE_GOLDEN = FIXTURES / "parse_golden.json"


def _corpus_texts():
    yield "fixtures", [path.read_text() for path in sorted(FIXTURES.iterdir()) if path != PARSE_GOLDEN]
    cells = [plant_cells(n) for n in (1, 2, 3)]
    yield "plant_cells", [print_system(m) for m, _ in cells] + [print_policy(p) for _, p in cells]
    for first in range(0, 300, 100):
        texts = []
        for seed in range(first, first + 100):
            rng = random.Random(seed)
            model = random_model(rng)
            texts += [print_system(model), print_policy(random_policy(rng, model))]
        yield f"randgen_{first}", texts


CORPORA = dict(_corpus_texts())


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_scanner_agrees_with_per_character_lexer(corpus):
    rng = random.Random(corpus)
    for text in CORPORA[corpus]:
        assert_same_tokens(text)
        for mutated in _mutations(text, rng, 6):
            assert_same_tokens(mutated)


@pytest.mark.parametrize(
    "text",
    [
        "", "   ", "//", "// a b", "zone A // x @", "zone A;\n// x y\n  ", "a//b", "a/ /b", "a///b",
        "/", "/a", "a/", '"', 'a "b', '"a//b"', '"a\nb" c', '"a\nb" "c\nd\ne" f\ng', "x\r\ny\r",
        "<->-->--<-", "a.b.c", "²", "a²", "3²", "²3", "½", "a½", "٣", "x٣y", "é", "été", "_é",
        "\f", "a\xa0b", "9a", "a9", "a-b", "a->b<->c", "{}();,.<", '"a\nb" @',
        '"a\nb" c "d\ne" f\n "g" @', 'x "\n" y\n\n"a\nbc" z //c', 'x "\n\n" "a" "b\n" ²',
    ],
)
def test_scanner_agrees_on_edge_cases(text):
    assert_same_tokens(text)


def _parse_digest(corpus):
    """sha256 of what `parse_system` and `parse_policy` make of each text of
    `corpus` and of six seeded mutations of it: the canonical print of what
    parsed, or the error's message and span length."""
    rng = random.Random(corpus)
    digest = hashlib.sha256()
    for text in CORPORA[corpus]:
        for variant in [text, *_mutations(text, rng, 6)]:
            for parse, canonical in ((parse_system, print_system), (parse_policy, print_policy)):
                try:
                    outcome = "parsed " + canonical(parse(variant, FILE))
                except ParseError as err:
                    outcome = f"error {err} {err.span.length}"
                digest.update(outcome.encode() + b"\0")
    return digest.hexdigest()


def write_parse_golden():
    """Rewrites tests/fixtures/parse_golden.json from the parsers as they are:
    PYTHONPATH=src:tests python -c 'import test_scanner as t; t.write_parse_golden()'

    The fixtures corpus reads every fixture file but this one, so a changed
    `cli_golden.json` changes its digest too."""
    digests = {corpus: _parse_digest(corpus) for corpus in sorted(CORPORA)}
    PARSE_GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_parsers_give_the_recorded_models_and_errors(corpus):
    """Every model and every error, message and span, of both parsers on the
    corpus and its mutations, held to the digests in parse_golden.json."""
    assert _parse_digest(corpus) == json.loads(PARSE_GOLDEN.read_text())[corpus]


# Blanks and comments after the last token.  A skip pattern that can split a
# run of blanks in more than one way backtracks through every split when the
# scanner's final match fails: about 2**63 steps for 64 trailing spaces.
TRAILING = [
    "zone A;" + " " * 64,
    "zone A;" + "\n    " * 6,
    "zone A;" + "\n    // x" * 20 + "\n",
    "zone A;" + "\r\n    // x" * 20 + "\r\n",
    "zone A;" + "\n    // x" * 20 + "\n  @",
    "zone A;" + "\r\n    // x" * 20 + "\r\n  @ zone B;",
    "zone A;" + " \t\r\n// c\n" * 20_000 + "  ",
]


def test_trailing_blanks_and_comments_scan_in_linear_time():
    # In a child process, so that a scan that never ends fails the test
    # instead of hanging the suite.
    script = (
        "import ast, sys\n"
        "from accessfix import ParseError, parse_system\n"
        "from accessfix.dslparser import _tokenize\n"
        "for text in ast.literal_eval(sys.stdin.read()):\n"
        "    for scan in (_tokenize, parse_system):\n"
        "        try:\n"
        "            scan(text, 'f.ins')\n"
        "        except ParseError:\n"
        "            pass\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(accessfix.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script], input=repr(TRAILING), text=True,
                   env=env, check=True, timeout=30)
    for text in TRAILING[:-1]:
        assert_same_tokens(text)


def test_newlines_inside_a_string_are_counted():
    text = 'device D in Z { port p mac "a\nb" ip "c"; }\n zone zone;'
    with pytest.raises(ParseError) as err:
        parse_system(text, "f.ins")
    assert str(err.value) == "f.ins:3:7: expected identifier, found 'zone'"
    tokens, _ = _new(text)
    assert [(t[1], t[2].line, t[2].column) for t in tokens][-5:-2] == [
        ("}", 2, 12), ("zone", 3, 2), ("zone", 3, 7)
    ]
    old = char_tokenize(text, "f.ins")[-3]
    assert (old.text, old.line, old.column) == ("zone", 2, 7)  # the per-character count


@pytest.mark.parametrize("digit", ["²", "³", "¹", "⁵", "①"])
def test_non_decimal_digit_in_a_port_is_a_parse_error(digit):
    text = f"zone Z external;\ndevice D in Z {{ operation o {{ when rem_acc(tcp, {digit}); }} }}"
    old = [t for t in char_tokenize(text, "f.ins") if t.text == digit]
    assert old[0].kind == "number"  # the per-character lexer's reading
    with pytest.raises(ParseError) as err:
        parse_system(text, "f.ins")
    assert str(err.value) == f"f.ins:2:49: expected a token, found '{digit}'"


@pytest.mark.parametrize("digit, value", [("٣", 3), ("３", 3), ("٣٤", 34), ("1٣", 13)])
def test_unicode_decimal_digits_are_numbers(digit, value):
    text = f"zone Z external;\ndevice D in Z {{ operation o {{ when rem_acc(tcp, {digit}); }} }}"
    variant = parse_system(text).devices["D"].operations["o"][0]
    assert variant.precondition.port == value


@pytest.mark.parametrize("start", ["½", "²"])
def test_non_letter_cannot_start_an_identifier(start):
    with pytest.raises(ParseError) as err:
        parse_system(f"zone A;\nzone {start}x;", "f.ins")
    assert str(err.value) == f"f.ins:2:6: expected a token, found '{start}'"
    assert parse_system(f"zone A{start};").zones.keys() == {f"A{start}"}


# Messages the per-character lexer gave, kept byte for byte.
GOLDEN = [
    ('device D in Z { port p mac "abc;\n', "f.ins:1:28: expected closing '\"', found end of input"),
    ('zone A;\n"', "f.ins:2:1: expected closing '\"', found end of input"),
    ("zone A;\nzone B @;\n", "f.ins:2:8: expected a token, found '@'"),
    ("zone ;\nzone @;", "f.ins:2:6: expected a token, found '@'"),  # lexed before parsed
    ("zone A;\n\tzone B $ zone C;", "f.ins:2:9: expected a token, found '$'"),
    ("zone zone;", "f.ins:1:6: expected identifier, found 'zone'"),
    (
        "credential k;\nzone A external;\nuser u at A credentials {k};\nuser u at A credentials {};",
        "f.ins:4:6: expected a new user name, found duplicate 'u'",
    ),
    ("zone A;\n  zone A;", "f.ins:2:8: expected a new zone name, found duplicate 'A'"),
    ("credential k; credential k;", "f.ins:1:26: expected a new credential name, found duplicate 'k'"),
    (
        'device D in Z { port p mac "m" ip "i"; port p mac "m" ip "i"; }',
        "f.ins:1:45: expected a new port name, found duplicate 'p'",
    ),
    ("device D in Z { }\ndevice D in Z { }", "f.ins:2:8: expected a new device name, found duplicate 'D'"),
    ("zone A // no semicolon", 'f.ins:1:8: expected ";", found end of input'),
    ("zone A\n// comment", 'f.ins:2:1: expected ";", found end of input'),
    ("zone A;\r\nzone B\r\n", 'f.ins:3:1: expected ";", found end of input'),
    ("zone A;\r\nzone @;\r\n", "f.ins:2:6: expected a token, found '@'"),
    ("zone A;\r\n// c\r\ndoor d A - B;\r\n", "f.ins:3:10: expected a token, found '-'"),
    (
        "device D in Z { operation o { when rem_acc(tcp, x); } }",
        "f.ins:1:49: expected a number, found 'x'",
    ),
    ("door d A <- B;", "f.ins:1:11: expected a token, found '-'"),
    (
        "zone A; / / zone B;",
        'f.ins:1:9: expected a declaration ("credential", "zone", "door", "device", "link" or "user"),'
        " found '/'",
    ),
    (
        'zone A;\n"quoted";',
        'f.ins:2:1: expected a declaration ("credential", "zone", "door", "device", "link" or "user"),'
        " found 'quoted'",
    ),
    ("device D in Z/h1/ switch { }", "f.ins:1:19: expected identifier, found 'switch'"),
    ("zone été;\nzone 9a;", "f.ins:2:6: expected identifier, found '9'"),
    ("zone A;\f", "f.ins:1:8: expected a token, found '\f'"),
]


@pytest.mark.parametrize("text, message", GOLDEN)
def test_error_messages_are_kept(text, message):
    with pytest.raises(ParseError) as err:
        parse_system(text, "f.ins")
    assert str(err.value) == message


def test_policy_error_messages_are_kept():
    with pytest.raises(ParseError) as err:
        parse_policy("role r { }\nrole r { }", "f.rbac")
    assert str(err.value) == "f.rbac:2:6: expected a new role name, found duplicate 'r'"
    with pytest.raises(ParseError) as err:
        parse_policy("role r { deny (run, x); allow (run, y); }", "f.rbac")
    assert str(err.value) == 'f.rbac:1:25: expected "}", found \'allow\''
    assert err.value.span.length == 5
    assert parse_policy("// only a comment").roles == {}
