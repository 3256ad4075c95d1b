"""Tests for repro.core.tokenizers."""

import re

import pytest
from hypothesis import example, given, strategies as st

from repro.core.tokenizers import (
    QGramTokenizer,
    Tokenizer,
    WordTokenizer,
    clean_text,
)

# -- the cleaning and tokenizing code as it stood before the ASCII fast
# -- path (PR 16), kept verbatim as the reference the new code must equal

_CLEAN_RE = re.compile(r"[^a-z0-9 ]+")
_WS_RE = re.compile(r"\s+")


def reference_clean_text(text: str) -> str:
    lowered = text.lower()
    stripped = _CLEAN_RE.sub(" ", lowered)
    return _WS_RE.sub(" ", stripped).strip()


def reference_widen_duplicates(tokens: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    widened = []
    for token in tokens:
        count = seen.get(token, 0) + 1
        seen[token] = count
        widened.append(token if count == 1 else f"{token}#{count}")
    return widened


def reference_tokenize(tokenizer: Tokenizer, text: str) -> list[str]:
    if tokenizer.clean:
        text = reference_clean_text(text)
    return reference_widen_duplicates(tokenizer._raw_tokens(text))


#: text that lower-cases into ASCII letters, is whitespace only to
#: ``\s``, or is a digit only to ``str.isdigit``: what a table-driven
#: cleaner is most likely to get wrong
AWKWARD = ["\u0130", "\u212a", "\xdf", "\xa0", "\t", "\n", "\r", "\x1c", "\u0663", "\uff11"]

unicode_text = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(AWKWARD + list("aAbB01 .,;-#$")), max_size=40),
)
all_tokenizers = st.one_of(
    st.just(WordTokenizer()),
    st.integers(min_value=1, max_value=3).map(lambda q: QGramTokenizer(q=q)),
)


class TestCleanText:
    def test_lowercases(self):
        assert clean_text("Hello World") == "hello world"

    def test_strips_punctuation(self):
        assert clean_text("Smith, John W.") == "smith john w"

    def test_collapses_whitespace(self):
        assert clean_text("a   b\t c") == "a b c"

    def test_strips_ends(self):
        assert clean_text("  x  ") == "x"

    def test_keeps_digits(self):
        assert clean_text("Top-10 results (2009)") == "top 10 results 2009"

    def test_empty(self):
        assert clean_text("") == ""

    def test_only_punctuation(self):
        assert clean_text("!!! ???") == ""

    @given(unicode_text)
    @example("")
    @example("!!! ???")
    @example("\u0130stanbul 300\u212a Stra\xdfe\xa0x\ty\nz \u0663\uff11")
    @example("A\x1cB\x1fC\x7fD\x00E")
    def test_equals_reference(self, text):
        assert clean_text(text) == reference_clean_text(text)

    def test_every_ascii_character(self):
        for code in range(128):
            text = f"a{chr(code)}B"
            assert clean_text(text) == reference_clean_text(text), code


class TestEqualsReferenceTokenizer:
    """``clean=True`` token lists are exactly those of the code before
    the ASCII fast path, for every tokenizer and any Unicode text."""

    @given(all_tokenizers, unicode_text)
    @example(WordTokenizer(), "")
    @example(WordTokenizer(), "?!  ...")
    @example(WordTokenizer(), "The the THE \u0130 i\u0307 \u212a k K")
    @example(QGramTokenizer(q=2), "aaa \xdf\xa0aaa")
    def test_token_lists_equal(self, tokenizer, text):
        assert tokenizer.tokenize(text) == reference_tokenize(tokenizer, text)

    @given(all_tokenizers, unicode_text)
    def test_result_is_a_fresh_list(self, tokenizer, text):
        first = tokenizer.tokenize(text)
        expected = list(first)
        first.append("scribble")
        first.reverse()
        assert tokenizer.tokenize(text) == expected


class TestWidening:
    """The duplicate-free contract on uncleaned text, where a literal
    token can look like a widened name."""

    def test_literal_token_shaped_like_a_widened_name(self):
        assert WordTokenizer(clean=False).tokenize("a a a#2") == ["a", "a#3", "a#2"]
        assert WordTokenizer(clean=False).tokenize("a#2 a a") == ["a#2", "a", "a#3"]
        assert WordTokenizer(clean=False).tokenize("a a#2 a a#2") == [
            "a", "a#2", "a#3", "a#2#2",
        ]

    @given(
        st.one_of(
            st.just(WordTokenizer(clean=False)),
            st.integers(min_value=1, max_value=3).map(
                lambda q: QGramTokenizer(q=q, clean=False)
            ),
        ),
        st.one_of(st.text(), st.text(alphabet="a#23 ", max_size=24)),
    )
    def test_duplicate_free_order_kept_first_occurrence_named(self, tokenizer, text):
        raw = tokenizer._raw_tokens(text)
        tokens = tokenizer.tokenize(text)
        assert len(set(tokens)) == len(tokens) == len(raw)
        seen = set()
        for raw_token, token in zip(raw, tokens):
            if raw_token in seen:
                # a repeat: its raw name plus an occurrence suffix
                assert re.fullmatch(re.escape(raw_token) + r"#[1-9][0-9]*", token)
            else:
                assert token == raw_token
            seen.add(raw_token)


class TestWordTokenizer:
    def test_paper_example(self):
        assert WordTokenizer().tokenize("I will call back") == [
            "i", "will", "call", "back",
        ]

    def test_duplicates_widened(self):
        assert WordTokenizer().tokenize("a b a a") == ["a", "b", "a#2", "a#3"]

    def test_widening_preserves_count(self):
        tokens = WordTokenizer().tokenize("x x y x y")
        assert len(tokens) == 5
        assert len(set(tokens)) == 5

    def test_no_clean_mode(self):
        assert WordTokenizer(clean=False).tokenize("Hello, World") == ["Hello,", "World"]

    def test_empty_string(self):
        assert WordTokenizer().tokenize("") == []

    def test_tokenize_set(self):
        assert WordTokenizer().tokenize_set("a b a") == {"a", "b", "a#2"}

    def test_repr(self):
        assert "WordTokenizer" in repr(WordTokenizer())

    @given(st.text())
    def test_always_duplicate_free(self, text):
        tokens = WordTokenizer().tokenize(text)
        assert len(tokens) == len(set(tokens))

    @given(st.text(alphabet="ab ", max_size=30))
    def test_deterministic(self, text):
        assert WordTokenizer().tokenize(text) == WordTokenizer().tokenize(text)


class TestQGramTokenizer:
    def test_basic_bigrams(self):
        grams = QGramTokenizer(q=2, clean=False).tokenize("ab")
        assert grams == ["$a", "ab", "b$"]

    def test_q1_is_characters(self):
        assert QGramTokenizer(q=1, clean=False).tokenize("abc") == ["a", "b", "c"]

    def test_padding_length(self):
        grams = QGramTokenizer(q=3, clean=False).tokenize("abcd")
        # padded length = 4 + 2*2 = 8 -> 6 grams
        assert len(grams) == 6
        assert grams[0] == "$$a"
        assert grams[-1] == "d$$"

    def test_empty(self):
        assert QGramTokenizer(q=3).tokenize("") == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramTokenizer(q=0)

    def test_invalid_pad(self):
        with pytest.raises(ValueError):
            QGramTokenizer(pad="##")

    def test_duplicate_grams_widened(self):
        grams = QGramTokenizer(q=2, clean=False).tokenize("aaa")
        assert len(grams) == len(set(grams))

    def test_cleaning_applies(self):
        assert QGramTokenizer(q=2).tokenize("A!") == QGramTokenizer(q=2).tokenize("a")

    @given(st.text(alphabet="abc", max_size=20), st.integers(min_value=1, max_value=4))
    def test_gram_count(self, text, q):
        grams = QGramTokenizer(q=q, clean=False).tokenize(text)
        if not text:
            assert grams == []
        elif q == 1:
            assert len(grams) == len(text)
        else:
            assert len(grams) == len(text) + q - 1
