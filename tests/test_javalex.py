import string
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from javascale.javalex import count_sloc, lex, tokenize

import javalex_reference as reference
from conftest import CORPUS_DIR, FOONUMBER_SOURCE

# backslash-newline inside a string literal; the literal ends at the line end
BACKSLASH_NEWLINE = 'String s = "ab\\\ncd";\nint x;\n'


class TestCountSloc:
    def test_empty_string(self):
        assert count_sloc("") == 0

    def test_blank_and_comment_lines_only(self):
        text = "\n\n\n// one\n// two\n"
        assert count_sloc(text) == 0

    def test_foonumber_listing(self):
        assert count_sloc(FOONUMBER_SOURCE) == 11

    def test_block_comment_spanning_lines(self):
        text = "int a;\n/* one\n   two\n   three */\nint b;\n"
        assert count_sloc(text) == 2

    def test_code_and_comment_on_same_line(self):
        assert count_sloc("int a; // trailing\n") == 1
        assert count_sloc("/* lead */ int a;\n") == 1

    def test_string_containing_comment_markers(self):
        text = 'String s = "no // comment /* here";\n'
        assert count_sloc(text) == 1

    def test_char_literal_with_slash(self):
        assert count_sloc("char c = '/';\nchar d = '\\'';\n") == 2

    def test_unterminated_block_comment_counts_as_code(self):
        text = "int a;\n/* never closed\nstill open\n\n"
        # fallback: the malformed comment's non-blank lines count as code
        assert count_sloc(text) == 3

    def test_unterminated_string_closes_at_newline(self):
        text = 'String s = "oops;\nint a;\n'
        assert count_sloc(text) == 2

    def test_text_block(self):
        text = 'String s = """\nline\n""";\nint a;\n'
        assert count_sloc(text) == 4

    def test_text_block_counts_every_line_it_spans(self):
        text = 'String s = """\n\n  // not a comment\n\n""";\n\nint a;\n'
        assert count_sloc(text) == 6

    def test_backslash_before_newline_does_not_join_lines(self):
        assert count_sloc(BACKSLASH_NEWLINE) == 3
        assert count_sloc("char c = '\\\nint x;\n") == 2

    def test_unterminated_block_comment_counts_non_blank_tail(self):
        text = "int a;\n\n  /* open\n \t\n  tail\n\x0b\n"
        # in the open comment's tail, str.strip() decides what is blank,
        # so the vertical-tab line is blank there; elsewhere it is code
        assert count_sloc(text) == 3
        assert count_sloc("int a;\n\x0b\n") == 2


def texts_of(text):
    return lex(text)[0]


class TestTokenize:
    def test_words_and_punct(self):
        assert texts_of("class Foo { int x; }") == ["class", "Foo", "{", "int", "x", ";", "}"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [(text, line) for _, text, line in toks] == [("a", 1), ("b", 2), ("c", 4)]

    def test_comments_dropped(self):
        assert texts_of("a // line\nb /* block */ c") == ["a", "b", "c"]

    def test_string_with_escapes_is_one_token(self):
        assert lex(r'x = "a\"b\\" ;')[1] == "wpsp"

    def test_numbers(self):
        toks = tokenize("int a = 0x1F + 1_000 + 1.5e-3f + 1e+5 + 0x1p-3 + 1_000L;")
        nums = [text for kind, text, _ in toks if kind == "n"]
        assert nums == ["0x1F", "1_000", "1.5e-3f", "1e+5", "0x1p-3", "1_000L"]
        # a hex digit E is no exponent: the sign is an operator
        toks = tokenize("a = 0xE-1; b = 0xEE+x;")
        assert [(kind, text) for kind, text, _ in toks][2:5] == [
            ("n", "0xE"), ("p", "-"), ("n", "1")
        ]
        assert [(kind, text) for kind, text, _ in toks][8:11] == [
            ("n", "0xEE"), ("p", "+"), ("w", "x")
        ]

    def test_compound_operators(self):
        toks = tokenize("a >>= 2; b != c; d :: e; f >>>= g; h(String... i) >>> j")
        ops = [text for kind, text, _ in toks if kind == "p"]
        assert ">>=" in ops and "!=" in ops and "::" in ops
        assert ">>>=" in ops and "..." in ops and ">>>" in ops

    def test_generic_shift_ambiguity_lexes_greedily(self):
        assert ">>" in texts_of("Map<String,List<Integer>> m")

    def test_tokenize_returns_plain_triples(self):
        assert tokenize("x") == [("w", "x", 1)]
        assert type(tokenize("x")[0]) is tuple

    def test_backslash_before_newline_does_not_join_lines(self):
        assert tokenize(BACKSLASH_NEWLINE) == [
            ("w", "String", 1), ("w", "s", 1), ("p", "=", 1),
            ("s", '"ab\\', 1), ("w", "cd", 2), ("s", '";', 2),
            ("w", "int", 3), ("w", "x", 3), ("p", ";", 3),
        ]

    def test_text_block_takes_its_first_line(self):
        toks = tokenize('a = """\none\ntwo""";\nb')
        assert [(kind, line) for kind, _, line in toks] == [
            ("w", 1), ("p", 1), ("s", 1), ("p", 3), ("w", 4),
        ]
        assert toks[2][1] == '"""\none\ntwo"""'

    def test_unterminated_text_block_runs_to_end_of_file(self):
        toks = tokenize('a = """\nno end; b\n')
        assert toks[-1] == ("s", '"""\nno end; b\n', 1)
        assert len(toks) == 3

    def test_unterminated_block_comment_ends_tokens(self):
        assert tokenize("/* never closed\nint a;\n") == []
        assert texts_of("a /* b\nc") == ["a"]

    def test_non_ascii_character_is_one_punct(self):
        toks = tokenize("caf\u00e9 = 1;")
        assert [(kind, text) for kind, text, _ in toks][:2] == [("w", "caf"), ("p", "\u00e9")]
        assert lex("\x0b\u00a0")[1] == "pp"

    def test_lone_slash_at_end_of_file(self):
        assert tokenize("a /") == [("w", "a", 1), ("p", "/", 1)]
        assert count_sloc("a /") == 1


def reference_lex(text):
    """The reference lexer's (kind, text, line) triples, each kind as its
    initial, and its SLOC."""
    toks = [(t.kind[0], t.text, t.line) for t in reference.tokenize(text)]
    return toks, reference.count_sloc(text)


class TestClassifiedByText:
    """Each place where a match, a single string, is classified by its text,
    checked against the reference lexer."""

    @staticmethod
    def check(text, toks, sloc):
        assert (tokenize(text), count_sloc(text)) == reference_lex(text) == (toks, sloc)

    def test_short_block_comments(self):
        # `/*/` opens a comment but does not close it
        self.check("/*/", [], 1)
        self.check("/*/x", [], 1)
        self.check("a\n/*/\nb\n", [("w", "a", 1)], 3)
        self.check("/**/", [], 0)
        self.check("a/**/b", [("w", "a", 1), ("w", "b", 1)], 1)

    def test_slash_operators_at_end_of_file(self):
        self.check("a/", [("w", "a", 1), ("p", "/", 1)], 1)
        self.check("a/=", [("w", "a", 1), ("p", "/=", 1)], 1)

    def test_text_block_against_empty_string(self):
        self.check('""""', [("s", '""""', 1)], 1)
        self.check('""', [("s", '""', 1)], 1)
        self.check('""\n""', [("s", '""', 1), ("s", '""', 2)], 2)

    def test_characters_that_start_no_token(self):
        for char in ("\u00e9", "\x0b", "#"):
            self.check(f"a{char}1", [("w", "a", 1), ("p", char, 1), ("n", "1", 1)], 1)
            assert lex(char)[1] == "p"


class TestTokenTable:
    def test_parallel_sequences(self):
        source = 'class A {\n  String s = "x"; char c = \'y\'; int n = 1;\n}\n'
        texts, kinds, lines, sloc = lex(source)
        assert type(kinds) is str and len(kinds) == len(texts) == len(lines)
        assert type(lines) is array and lines.typecode == "i"
        assert kinds == "wwpwwpspwwpcpwwpnpp"
        assert list(lines) == [1] * 3 + [2] * 15 + [3]
        assert sloc == 3

    def test_equal_texts_are_one_object(self):
        # texts of several characters, which CPython does not share by itself,
        # from two files
        texts = (
            lex('gamma12.beta("a literal"); gamma12 >>>= 0x1F;')[0]
            + lex('gamma12 = "a literal" + 0x1F;\ngamma12 >>>= 3;')[0]
        )
        by_text = {}
        for text in texts:
            assert by_text.setdefault(text, text) is text
        assert len(by_text) < len(texts)


# Pieces rich in what changes the lexer's state: quotes, comment markers,
# backslashes, line breaks, exponent letters and signs, operator
# characters, and characters that start no token.
_PIECES = list(
    "\"'/\\*\n\t\r\f "
    + string.ascii_letters[:6] + "xyzXYZ_$" + string.digits[:4]
    + "eEpP+-." + "<>=!&|^%:?~()[]{};,@#" + "\u00e9\u00a0\x0b"
) + ['"""', "/*", "*/", "//", "\\\n", '\\"', "\\'", "1e+", "0x1p-", ">>>=", "...",
     "/**/", "/*/", '""""']
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


class TestAgainstReference:
    """The master-pattern lexer against the frozen character loops."""

    @staticmethod
    def check(text, where=None):
        toks, sloc = reference_lex(text)
        texts, kinds, lines, got_sloc = lex(text)
        assert (list(zip(kinds, texts, lines)), got_sloc) == (toks, sloc), where
        assert (tokenize(text), count_sloc(text)) == (toks, sloc), where

    @given(_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_text(self, text):
        self.check(text)

    def test_fixture_corpus(self):
        sources = sorted(CORPUS_DIR.rglob("*.java"))
        assert sources
        for path in sources:
            self.check(path.read_text(encoding="utf-8"), path)

    def test_project_sloc_sums_its_files(self, fixture_projects):
        assert fixture_projects
        for facts in fixture_projects:
            texts = [
                path.read_text(encoding="utf-8")
                for path in (CORPUS_DIR / facts.project_id).rglob("*.java")
            ]
            expected = sum(map(reference.count_sloc, texts))
            assert facts.sloc == expected, facts.project_id
