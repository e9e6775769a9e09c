"""Parse trees evaluated in T⊗A against the word-expanding reference.

`ncpoly_reference` keeps the parser that built every polynomial by word
arithmetic and the `mu` that evaluated it word by word.  Hypothesis draws
expression strings over small instances, with the trivial cocycle and
with coboundary cocycles, and the tree path must agree with it on the
words, on the image under `mu`, on the classification and on the cap.
"""

import re
import time
from functools import cache
from math import comb

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from ncpoly_reference import reference_mu, reference_parse

from hopfgen import identities, tring
from hopfgen.cocycle import coboundary_cocycle, trivial_cocycle
from hopfgen.errors import RangeError
from hopfgen.groups import symmetric
from hopfgen.hopf import e_algebra, group_algebra, taft
from hopfgen.identities import NCPoly, classify, mu, mu_algebra, parse_ncpoly, symbol
from hopfgen.tring import TensorH, TMonomial

BUILDERS = {
    "taft(2)": lambda: taft(2),
    "taft(3)": lambda: taft(3),
    "e(1)": lambda: e_algebra(1),
    "e(2)": lambda: e_algebra(2),
    "k[S3]": lambda: group_algebra(symmetric(3)),
}
# Hypothesis favours the first entries of a sampled_from, so the exponents
# that square come first, and in `expressions` the compound kinds do.
EXPONENTS = st.sampled_from((2, 3, 0, 1))
CAP_MESSAGE = re.compile(r"word of length (\d+) exceeds cap (\d+)")
# one word of length 81, over the default cap of 64: a draw both parsers refuse
OVER_CAP = ("e(1)", "(((X[1]^3)^3)^3)^3", 0)


@cache
def instance(name):
    return BUILDERS[name]()


def cocycle(name, seed):
    """The trivial cocycle, or for the group algebra with seed >= 0 a
    coboundary cocycle."""
    h = instance(name)
    if seed < 0 or len(h.grouplikes) != h.dim:
        return trivial_cocycle(h)
    return coboundary_cocycle(h, seed)


@st.composite
def expressions(draw, labels, depth):
    """An expression string: a letter, a letter power or a scalar at depth
    0, otherwise a sum, product, power, negation or cancelling sum of
    expressions of lower depth."""
    kind = draw(st.sampled_from(("sum", "product", "power", "cancel", "neg", "atom")))
    if depth == 0 or kind == "atom":
        letter = f"X[{draw(st.sampled_from(labels))}]"
        return draw(st.sampled_from((
            letter,
            f"{letter}^{draw(EXPONENTS)}",
            letter,
            str(draw(st.integers(0, 5))),
            f"{draw(st.integers(0, 5))}/{draw(st.integers(1, 4))}",
            "q",
        )))
    inner = expressions(labels, depth - 1)
    if kind == "sum":
        out = draw(inner)
        for _ in range(draw(st.sampled_from((2, 1, 3)))):
            out += f" {draw(st.sampled_from('+-'))} {draw(inner)}"
        return out
    if kind == "product":
        return "*".join(f"({draw(inner)})" for _ in range(draw(st.sampled_from((2, 3)))))
    if kind == "power":
        return f"({draw(inner)})^{draw(EXPONENTS)}"
    if kind == "neg":
        return f"(-{draw(inner)})"
    # top-degree words that cancel, so the cap can tell the two apart
    top = draw(inner)
    return f"({top} - {top} + {draw(inner)})"


@st.composite
def queries(draw):
    name = draw(st.sampled_from(sorted(BUILDERS)))
    text = draw(expressions(instance(name).labels, draw(st.integers(1, 4))))
    seed = draw(st.integers(-2, 5))
    return name, text, seed


def word_bound(tree) -> int:
    """How many words the tree can expand to, at most."""
    op = tree[0]
    if op == "leaf":
        return 1
    if op == "-":
        return word_bound(tree[2])
    if op == "^":
        return word_bound(tree[2]) ** tree[3]
    counts = [word_bound(t) for t in tree[2]]
    out = counts[0]
    for c in counts[1:]:
        out = out + c if op == "+" else out * c
    return out


def parsed(text, h, cap=identities.DEFAULT_WORD_CAP):
    """parse_ncpoly(text, h, cap); a draw that the cap refuses, such as
    OVER_CAP, is rejected: refusal parity is tested at small caps by
    `test_cap_refuses_what_the_reference_refuses`."""
    try:
        return parse_ncpoly(text, h, cap)
    except RangeError:
        reject()


def parsed_pair(name, text, cap=identities.DEFAULT_WORD_CAP):
    """The tree polynomial and the reference one, for inputs whose
    expansion stays small enough for the word-by-word reference."""
    h = instance(name)
    new = parsed(text, h, cap)
    assume(word_bound(new._tree) <= 400)
    return new, reference_parse(text, h, cap)


@given(queries())
@example(OVER_CAP)
@settings(max_examples=150, deadline=None)
def test_terms_equal_the_reference_expansion(query):
    name, text, _ = query
    new, ref = parsed_pair(name, text)
    assert new.terms == ref.terms
    assert new == ref and hash(new) == hash(ref)
    assert new.to_text() == ref.to_text()


@given(queries())
@example(OVER_CAP)
@settings(max_examples=150, deadline=None)
def test_mu_of_the_tree_equals_the_word_by_word_image(query):
    name, text, seed = query
    new, ref = parsed_pair(name, text)
    h, alpha = instance(name), cocycle(name, seed)
    expected = reference_mu(h, alpha, ref)
    assert mu(h, alpha, new).terms == expected.terms
    assert mu(h, alpha, ref).terms == expected.terms


@given(queries())
@example(OVER_CAP)
@settings(max_examples=150, deadline=None)
def test_classify_flags_equal_the_reference(query):
    name, text, seed = query
    new, ref = parsed_pair(name, text)
    h, alpha = instance(name), cocycle(name, seed)
    assert classify(h, alpha, new) == classify(h, alpha, ref)


@given(queries(), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_cap_refuses_what_the_reference_refuses(query, cap):
    name, text, _ = query
    h = instance(name)
    assume(word_bound(parsed(text, h)._tree) <= 400)
    try:
        ref = reference_parse(text, h, cap)
    except RangeError as exc:
        assert CAP_MESSAGE.fullmatch(str(exc))
        with pytest.raises(RangeError, match=CAP_MESSAGE.pattern):
            parse_ncpoly(text, h, cap)
        return
    try:
        new = parse_ncpoly(text, h, cap)
    except RangeError as exc:
        # only cancelled top-degree words can let the reference through
        degree = int(CAP_MESSAGE.fullmatch(str(exc)).group(1))
        assert degree > cap
        assert max(map(len, ref.terms), default=0) < degree
        return
    assert new.terms == ref.terms


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_powered_sums_equal_the_reference(name):
    h = instance(name)
    a, b, c = (h.labels[i] for i in (h.unit_index, h.dim - 1, h.dim // 2))
    texts = [f"(X[{a}]+X[{b}])^{k}" for k in range(7)]
    texts.append(f"(X[{b}] - q*X[{c}])^3 * (X[{a}]+2)^2 - X[{c}]*(X[{b}]^2+1/2)^2")
    for seed in (-1, 2):
        alpha = cocycle(name, seed)
        for text in texts:
            new, ref = parse_ncpoly(text, h), reference_parse(text, h)
            assert mu(h, alpha, new).terms == reference_mu(h, alpha, ref).terms
            assert new.terms == ref.terms


def test_cancelled_top_words_count_towards_the_cap():
    h = taft(2)
    text = "(X[x]*X[y] - X[x]*X[y] + X[1]) * X[x]"
    assert reference_parse(text, h, 2).terms == {(h.unit_index, h.index_of("x")): h.field.one}
    with pytest.raises(RangeError, match="word of length 3 exceeds cap 2"):
        parse_ncpoly(text, h, 2)


def test_a_power_over_the_cap_fails_before_any_work():
    h = taft(2)
    start = time.perf_counter()
    with pytest.raises(RangeError, match="word of length 65 exceeds cap 64"):
        parse_ncpoly("(X[1]+X[x])^65", h, 64)
    assert time.perf_counter() - start < 0.5


def test_a_sixty_fourth_power_is_classified_in_under_a_second():
    h = taft(2)
    alpha = trivial_cocycle(h)
    poly = parse_ncpoly("(X[1]+X[x])^64", h)
    start = time.perf_counter()
    flags = classify(h, alpha, poly)
    assert time.perf_counter() - start < 1.0
    assert flags == {"identity": False, "coinvariant": False, "central": False}
    # 1 and x commute and x^2 = 1: the binomial theorem gives the image
    one, x = h.unit_index, h.index_of("x")
    expected = {
        (TMonomial([(one, 64 - b), (x, b)]), x if b % 2 else one):
            h.field.scalar(comb(64, b))
        for b in range(65)
    }
    assert mu(h, alpha, poly).terms == expected


def test_expanding_a_sixty_fourth_power_hits_the_budget():
    poly = parse_ncpoly("(X[1]+X[x])^64", taft(2))
    start = time.perf_counter()
    with pytest.raises(RangeError, match="65536 by 65536 terms exceeds the budget"):
        poly.terms
    assert time.perf_counter() - start < 2.0


def test_products_over_the_budget_name_both_sizes(monkeypatch):
    h = taft(2)
    monkeypatch.setattr(tring, "PRODUCT_BUDGET", 9)
    p = parse_ncpoly("X[1] + X[x] + X[y]", h)
    assert len((p * p).terms) == 9
    q = parse_ncpoly("X[1] + X[x] + X[y] + X[x y]", h)
    with pytest.raises(RangeError, match="product of 3 by 4 terms exceeds the budget of 9"):
        p * q
    image = mu(h, trivial_cocycle(h), q)
    assert len(image.terms) == 6
    with pytest.raises(RangeError, match="product of 6 by 6 terms exceeds the budget of 9"):
        image * image


@pytest.mark.parametrize("name", ["taft(2)", "e(1)", "k[S3]"])
def test_powers_by_squaring_equal_repeated_products(name):
    h = instance(name)
    p = NCPoly(h, {(i,): h.field.one for i in (h.unit_index, h.dim - 1)} | {(): h.field.q})
    image = mu(h, cocycle(name, 3), p)
    word_power, tensor_power = NCPoly(h, {(): h.field.one}), image ** 0
    for k in range(6):
        assert (p ** k).terms == word_power.terms
        assert (image ** k).terms == tensor_power.terms
        word_power, tensor_power = word_power * p, tensor_power * image


@pytest.mark.parametrize("seed", [None, 4])
def test_letter_images_are_built_once_per_target(monkeypatch, seed):
    h = group_algebra(symmetric(3))
    alpha = trivial_cocycle(h) if seed is None else coboundary_cocycle(h, seed)
    builds = []
    real = identities._letter_images

    def counted(hopf, algebra):
        builds.append(algebra)
        return real(hopf, algebra)

    monkeypatch.setattr(identities, "_letter_images", counted)
    first = mu(h, alpha, parse_ncpoly("X[(1 2)]*X[(1 3)]", h))
    second = mu(h, alpha, symbol(h, "(1 2 3)") ** 2)
    assert builds == [mu_algebra(h, alpha)]
    assert isinstance(first, TensorH) and isinstance(second, TensorH)
    assert mu_algebra(h, alpha)._mu_images is not None


@pytest.mark.parametrize(
    "name, seed", [("taft(3)", None), ("e(2)", None), ("k[S3]", None), ("k[S3]", 4)]
)
def test_repeated_mu_calls_return_equal_images(name, seed):
    """The zero and one tensors are kept next to the letter images on the
    target algebra, built once; repeated calls give equal images, and the
    images of 0 and 1 stay the zero and the one tensor."""
    h = BUILDERS[name]()
    alpha = trivial_cocycle(h) if seed is None else coboundary_cocycle(h, seed)
    u, x, y = h.labels[0], h.labels[1], h.labels[-1]
    texts = ["0", "1", f"X[{x}]*X[{y}] - X[{y}]*X[{x}]", f"(X[{u}] + X[{x}])^3", f"2*X[{y}]^2 + 1"]
    first = [mu(h, alpha, parse_ncpoly(t, h)) for t in texts]
    _, zero, one = kept = mu_algebra(h, alpha)._mu_images
    for _ in range(2):
        again = [mu(h, alpha, parse_ncpoly(t, h)) for t in texts]
        assert again == first
        assert [a.to_text() for a in again] == [f.to_text() for f in first]
        assert mu_algebra(h, alpha)._mu_images is kept
    assert zero.is_zero and zero.to_text() == "0"
    algebra, ring = mu_algebra(h, alpha), tring.t_ring(h)
    assert one == TensorH.from_element(ring, algebra, ring.one(), algebra.unit_index)
    assert first[0] == zero and first[1] == one
    assert mu(h, alpha, NCPoly(h, {})) == zero
