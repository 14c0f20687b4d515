import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdyn import (
    ASequence,
    CantorPoint,
    GeneralizedShift,
    NotInImageError,
    State,
    block_encode,
    cantor_encode,
    cantor_point_of_config,
    compile_gshift,
    distance,
    embed,
    format_sequence,
    gshift_step,
    gshift_to_json_dict,
    make_config,
    parse_machine,
    step,
    unembed,
    verify_conjugacy,
)
from tmdyn.corpus import UTM_6_4_TEXT
from tmdyn.gshift import sequence_alphabet
from tmdyn.machine import Configuration

from conftest import machine_configs


# --- compilation -----------------------------------------------------------------


def test_compiled_right_move_window(utm):
    shift = compile_gshift(utm)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u2 = utm.state_named("u2")
    assert shift.apply_window((g, u2, b)) == ((g, g, u2), 1)


def test_compiled_left_move_window(utm):
    shift = compile_gshift(utm)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u1 = utm.state_named("u1")
    # (u1, g) writes b and moves left: state rotates to the front
    assert shift.apply_window((b, u1, g)) == ((u1, b, b), -1)


def test_off_image_windows_are_identity(utm):
    shift = compile_gshift(utm)
    u1, u2 = utm.state_named("u1"), utm.state_named("u2")
    b = utm.symbol_named("b")
    window = (u1, u2, b)  # two state tokens: not an embedded configuration
    assert shift.apply_window(window) == (window, 0)


def test_halting_window_fixpoint_identity(utm):
    shift = compile_gshift(utm)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    window = (g, utm.halting, b)
    assert shift.apply_window(window) == (window, 0)
    assert window not in shift.rules  # identities are not stored


def test_halting_window_restart(utm):
    shift = compile_gshift(utm.with_halting_mode("restart"))
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    assert shift.apply_window((g, utm.halting, b)) == ((g, utm.initial, b), 0)


# --- embedding -------------------------------------------------------------------


def test_embed_examples(utm):
    q = utm.state_named("u2")
    b, c = utm.symbol_named("b"), utm.symbol_named("c")
    assert embed(utm, make_config(utm, q)).cells == {0: q}
    assert embed(utm, make_config(utm, q, "b", 0)).cells == {0: q, 1: b}
    assert embed(utm, make_config(utm, q, "c", -1)).cells == {-1: c, 0: q}


def test_unembed_examples(utm):
    q = utm.state_named("u2")
    b = utm.symbol_named("b")
    alphabet = embed(utm, make_config(utm, q)).alphabet
    assert unembed(utm, ASequence(alphabet, utm.blank, {0: q})) == make_config(utm, q)
    assert unembed(utm, ASequence(alphabet, utm.blank, {0: q, 1: b})) == make_config(
        utm, q, "b", 0
    )
    with pytest.raises(NotInImageError):
        unembed(utm, ASequence(alphabet, utm.blank, {1: q}))
    with pytest.raises(NotInImageError):
        unembed(utm, ASequence(alphabet, utm.blank, {0: q, 2: utm.state_named("u1")}))


def test_unembed_rejects_foreign_state_ids(utm):
    # Cell 0 holds a state token of the sequence's alphabet that is not a
    # state of the machine: out-of-range id, or id 0 with a foreign name.
    alphabet = tuple(embed(utm, make_config(utm, utm.initial)).alphabet)
    for foreign in (State(len(utm.states), "u1"), State(-1, "u1"), State(0, "zz")):
        seq = ASequence(alphabet + (foreign,), utm.blank, {0: foreign})
        with pytest.raises(NotInImageError, match="cell 0 does not hold a state"):
            unembed(utm, seq)


def test_embed_is_equal_across_separate_parses():
    x_text = "b d g c"
    one, two = parse_machine(UTM_6_4_TEXT), parse_machine(UTM_6_4_TEXT)
    x1 = make_config(one, one.state_named("u3"), x_text, -2)
    x2 = make_config(two, two.state_named("u3"), x_text, -2)
    assert embed(one, x1) == embed(two, x2)
    assert embed(one, x1).alphabet is not embed(two, x2).alphabet


def test_plain_tuple_sequence_equals_embedding(utm):
    x = make_config(utm, utm.state_named("u2"), "b c d", -1)
    seq = embed(utm, x)
    plain = ASequence(tuple(seq.alphabet), utm.blank, dict(seq.cells))
    assert plain == seq
    assert plain.alphabet == seq.alphabet and plain.cells == seq.cells


@given(machine_configs())
@settings(max_examples=60)
def test_embed_round_trip(mc):
    machine, config = mc
    assert unembed(machine, embed(machine, config)) == config


@st.composite
def _config_pairs(draw):
    machine, x = draw(machine_configs())
    cells = draw(
        st.dictionaries(st.integers(-6, 6), st.sampled_from(machine.alphabet), max_size=8)
    )
    y = Configuration(x.state, {i: s for i, s in cells.items() if s != machine.blank})
    return machine, x, y


@given(_config_pairs())
@settings(max_examples=60)
def test_embedding_metric_compatibility(mxy):
    machine, x, y = mxy
    d = distance(x, y)
    if d in (0, 1):
        return
    k = d.denominator.bit_length() - 1  # d = 2**-k: tapes agree on |i| < k
    ex, ey = embed(machine, x), embed(machine, y)
    for i in range(-k + 1, k):
        assert ex.at(i) == ey.at(i)


# --- shift evaluation --------------------------------------------------------------


def test_identity_shift():
    alphabet = ("x", "y")
    seq = ASequence(alphabet, "x", {3: "y"})
    identity = GeneralizedShift(1, {})
    assert gshift_step(identity, seq) == seq


def test_pure_shift_moves_cells():
    alphabet = ("_", "a")
    rules = {}
    for w0 in alphabet:
        rules[(w0,)] = ((w0,), 1)
    bernoulli = GeneralizedShift(0, rules)
    seq = ASequence(alphabet, "_", {0: "a"})
    assert gshift_step(bernoulli, seq).cells == {-1: "a"}


def test_compiled_step_matches_machine_step(utm):
    shift = compile_gshift(utm)
    x = make_config(utm, utm.state_named("u2"), "b b", 0)
    assert gshift_step(shift, embed(utm, x)) == embed(utm, step(utm, x))


def test_compiled_step_rejects_off_alphabet_replacement(utm):
    # The cells gshift_step writes are checked against the alphabet too.
    shift = compile_gshift(utm)
    rules = dict(shift.rules)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u2 = utm.state_named("u2")
    rules[(g, u2, b)] = ((g, "zzz", u2), 1)
    corrupted = GeneralizedShift(1, rules)
    x = make_config(utm, u2, "b", 0)
    with pytest.raises(ValueError, match="not in the alphabet"):
        gshift_step(corrupted, embed(utm, x))


def test_window_length_validated():
    with pytest.raises(ValueError):
        GeneralizedShift(1, {("a",): (("a",), 0)})


# --- conjugacy -------------------------------------------------------------------


def test_conjugacy_corpus(utm, wutm):
    for machine in (utm, wutm):
        report = verify_conjugacy(machine, samples=1000, seed=7)
        assert report.failures == 0
        assert report.passes == 1000
        assert report.first_counterexample is None


def test_conjugacy_detects_corruption(utm):
    shift = compile_gshift(utm)
    rules = dict(shift.rules)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u2 = utm.state_named("u2")
    rules[(g, u2, b)] = ((b, b, u2), 1)  # wrong replacement
    corrupted = GeneralizedShift(1, rules)
    report = verify_conjugacy(utm, samples=2000, seed=3, shift=corrupted)
    # Exact values pin the sampling order and its seed.
    assert (report.passes, report.failures) == (1984, 16)
    assert report.first_counterexample == make_config(utm, u2, "b d c", 0)


@given(machine_configs())
@settings(max_examples=80)
def test_conjugacy_pointwise_and_forward_invariance(mc):
    machine, config = mc
    shift = compile_gshift(machine)
    image = gshift_step(shift, embed(machine, config))
    assert image == embed(machine, step(machine, config))
    # the image of the embedding is forward invariant: unembed must succeed
    assert unembed(machine, image) == step(machine, config)


# --- binary and Cantor coding ------------------------------------------------------


def test_block_encode_binary_alphabet_is_identity():
    seq = ASequence(("_", "1"), "_", {4: "1", -2: "1"})
    assert block_encode(seq) == {4: 1, -2: 1}


def test_block_encode_default_only_is_empty():
    seq = ASequence(("_", "1"), "_", {})
    assert block_encode(seq) == {}


def test_block_encode_wide_alphabet():
    alphabet = tuple(range(10))
    seq = ASequence(alphabet, 0, {-1: 3})
    # width 4, symbol 3 at cell -1 occupies bit cells [-4, 0) as 0011
    assert block_encode(seq) == {-2: 1, -1: 1}


def test_cantor_examples():
    assert cantor_encode({}) == CantorPoint(Fraction(0), Fraction(0))
    assert cantor_encode({-1: 1}) == CantorPoint(Fraction(2, 3), Fraction(0))
    assert cantor_encode({0: 1}) == CantorPoint(Fraction(0), Fraction(2, 3))


def test_cantor_rejects_non_bits():
    with pytest.raises(ValueError):
        cantor_encode({0: 2})


def test_cantor_injective_window():
    points = set()
    for mask in range(2**10):
        bits = {i - 5: (mask >> i) & 1 for i in range(10)}
        points.add(cantor_encode(bits))
    assert len(points) == 2**10


def test_cantor_digits_stay_in_cantor_set():
    point = cantor_encode({-3: 1, -1: 1, 0: 1, 4: 1})
    for coord in (point.x, point.y):
        assert 0 <= coord <= 1
        # every coordinate is a finite sum of 2/3^k: ternary digits in {0, 2}
        value, digits = coord, []
        for _ in range(12):
            value = value * 3
            digit = int(value)
            digits.append(digit)
            value -= digit
        assert set(digits) <= {0, 2}


def test_cantor_point_of_config_is_continuous_and_injective(utm, wutm):
    # Tapes that agree on |i| < k embed to sequences that agree on cells
    # -(k-1)..k, i.e. on bits -(k-1)w..(k+1)w-1, w bits per cell; the tails
    # of the two ternary sums then differ by at most 3**-((k-1)w) in x and
    # 3**-((k+1)w) in y.
    rng = random.Random(5)
    for machine in (utm, wutm):
        w = (len(sequence_alphabet(machine)) - 1).bit_length()
        for _ in range(300):
            state = rng.choice(machine.states)
            k = rng.randint(1, 6)
            cells = {i: rng.choice(machine.alphabet) for i in range(-8, 9)}
            other = {i: s if abs(i) < k else rng.choice(machine.alphabet) for i, s in cells.items()}
            i = rng.choice((-k, k))
            other[i] = rng.choice([s for s in machine.alphabet if s != cells[i]])
            x, y = (make_config(machine, state, list(c.values()), -8) for c in (cells, other))
            assert distance(x, y) == Fraction(1, 2**k)
            px, py = cantor_point_of_config(machine, x), cantor_point_of_config(machine, y)
            assert abs(px.x - py.x) <= Fraction(1, 3 ** ((k - 1) * w))
            assert abs(px.y - py.y) <= Fraction(1, 3 ** ((k + 1) * w))
        # Every configuration with tape support in [-1, 1], each state included.
        points = {
            cantor_point_of_config(machine, make_config(machine, q, window, -1))
            for q in machine.states
            for window in itertools.product(machine.alphabet, repeat=3)
        }
        assert len(points) == len(machine.states) * len(machine.alphabet) ** 3


# --- rendering and dumps ------------------------------------------------------------


def test_format_sequence(utm):
    seq = embed(utm, make_config(utm, utm.state_named("u2"), "b", 0))
    text = format_sequence(seq)
    assert ". u2 b" in text


def test_gshift_json_dump(utm):
    doc = gshift_to_json_dict(compile_gshift(utm))
    assert doc["radius"] == 1
    assert doc["default_rule"] == {"replacement": "identity", "shift": 0}
    assert all(len(rule["window"]) == 3 for rule in doc["rules"])
    # deterministic ordering
    assert doc == gshift_to_json_dict(compile_gshift(utm))


def test_asequence_canonicalization(utm):
    alphabet = (utm.blank, utm.symbol_named("b"))
    seq = ASequence(alphabet, utm.blank, {0: utm.blank, 1: utm.symbol_named("b")})
    assert seq.cells == {1: utm.symbol_named("b")}
    with pytest.raises(ValueError):
        ASequence(alphabet, utm.blank, {0: "zzz"})
