import string

from hypothesis import given, settings
from hypothesis import strategies as st

from javascale.javalex import Tok, count_sloc, lex, tokenize

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


class TestTokenize:
    def test_words_and_punct(self):
        toks = tokenize("class Foo { int x; }")
        assert [t.text for t in toks] == ["class", "Foo", "{", "int", "x", ";", "}"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [(t.text, t.line) for t in toks] == [("a", 1), ("b", 2), ("c", 4)]

    def test_comments_dropped(self):
        toks = tokenize("a // line\nb /* block */ c")
        assert [t.text for t in toks] == ["a", "b", "c"]

    def test_string_with_escapes_is_one_token(self):
        toks = tokenize(r'x = "a\"b\\" ;')
        assert [t.kind for t in toks] == ["word", "punct", "str", "punct"]

    def test_numbers(self):
        toks = tokenize("int a = 0x1F + 1_000 + 1.5e-3f + 1e+5 + 0x1p-3 + 1_000L;")
        nums = [t.text for t in toks if t.kind == "num"]
        assert nums == ["0x1F", "1_000", "1.5e-3f", "1e+5", "0x1p-3", "1_000L"]
        # a hex digit E is no exponent: the sign is an operator
        toks = tokenize("a = 0xE-1; b = 0xEE+x;")
        assert [(t.kind, t.text) for t in toks][2:5] == [
            ("num", "0xE"), ("punct", "-"), ("num", "1")
        ]
        assert [(t.kind, t.text) for t in toks][8:11] == [
            ("num", "0xEE"), ("punct", "+"), ("word", "x")
        ]

    def test_compound_operators(self):
        toks = tokenize("a >>= 2; b != c; d :: e; f >>>= g; h(String... i) >>> j")
        ops = [t.text for t in toks if t.kind == "punct"]
        assert ">>=" in ops and "!=" in ops and "::" in ops
        assert ">>>=" in ops and "..." in ops and ">>>" in ops

    def test_generic_shift_ambiguity_lexes_greedily(self):
        toks = tokenize("Map<String,List<Integer>> m")
        assert any(t.text == ">>" for t in toks)

    def test_tok_is_named_tuple(self):
        tok = tokenize("x")[0]
        assert tok == Tok("word", "x", 1)
        assert type(tok) is Tok and tok.kind == "word" and tok.line == 1

    def test_backslash_before_newline_does_not_join_lines(self):
        toks = tokenize(BACKSLASH_NEWLINE)
        assert [(t.kind, t.text, t.line) for t in toks] == [
            ("word", "String", 1), ("word", "s", 1), ("punct", "=", 1),
            ("str", '"ab\\', 1), ("word", "cd", 2), ("str", '";', 2),
            ("word", "int", 3), ("word", "x", 3), ("punct", ";", 3),
        ]

    def test_text_block_takes_its_first_line(self):
        toks = tokenize('a = """\none\ntwo""";\nb')
        assert [(t.kind, t.line) for t in toks] == [
            ("word", 1), ("punct", 1), ("str", 1), ("punct", 3), ("word", 4),
        ]
        assert toks[2].text == '"""\none\ntwo"""'

    def test_unterminated_text_block_runs_to_end_of_file(self):
        toks = tokenize('a = """\nno end; b\n')
        assert toks[-1] == Tok("str", '"""\nno end; b\n', 1)
        assert len(toks) == 3

    def test_unterminated_block_comment_ends_tokens(self):
        assert tokenize("/* never closed\nint a;\n") == []
        assert [t.text for t in tokenize("a /* b\nc")] == ["a"]

    def test_non_ascii_character_is_one_punct(self):
        toks = tokenize("caf\u00e9 = 1;")
        assert [(t.kind, t.text) for t in toks][:2] == [("word", "caf"), ("punct", "\u00e9")]
        assert [t.kind for t in tokenize("\x0b\u00a0")] == ["punct", "punct"]

    def test_lone_slash_at_end_of_file(self):
        assert tokenize("a /") == [Tok("word", "a", 1), Tok("punct", "/", 1)]
        assert count_sloc("a /") == 1


# Pieces rich in what changes the lexer's state: quotes, comment markers,
# backslashes, line breaks, exponent letters and signs, operator
# characters, and characters that start no token.
_PIECES = list(
    "\"'/\\*\n\t\r\f "
    + string.ascii_letters[:6] + "xyzXYZ_$" + string.digits[:4]
    + "eEpP+-." + "<>=!&|^%:?~()[]{};,@#" + "\u00e9\u00a0\x0b"
) + ['"""', "/*", "*/", "//", "\\\n", '\\"', "\\'", "1e+", "0x1p-", ">>>=", "..."]
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


class TestAgainstReference:
    """The master-pattern lexer against the frozen character loops."""

    @staticmethod
    def check(text, where=None):
        expected = (reference.tokenize(text), reference.count_sloc(text))
        assert lex(text) == expected, where
        assert (tokenize(text), count_sloc(text)) == expected, where

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
