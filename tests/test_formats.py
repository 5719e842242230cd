import pytest

from maxcsp import (
    Assignment,
    DomainError,
    FormatError,
    UnsupportedError,
    detect_format,
    parse,
    parse_cnf,
    parse_csp,
    parse_wcnf,
    random_csp,
    random_ekcnf,
    random_wcnf,
    serialize,
    weight_of,
)

from helpers import clauses_instance


class TestParseCnf:
    def test_minimal(self):
        inst, diags = parse_cnf("p cnf 2 1\n1 2 0\n")
        assert inst.num_vars == 2
        assert inst.num_constraints == 1
        assert inst.total_weight == 1.0
        assert inst.weighted_length == 2.0
        assert inst.clause_built
        assert diags.source_kind == "cnf"
        assert diags.warnings == []

    def test_literal_out_of_range(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 3 2\n1 2 3 0\n1 2 4 0\n")
        assert exc.value.line == 3
        assert "4" in exc.value.message

    def test_hand_counted_instance(self):
        inst, _ = parse_cnf("p cnf 4 2\n1 2 3 0\n1 2 4 0\n")
        assert inst.weighted_length == 6.0
        assert inst.contributions == (2.0, 2.0, 1.0, 1.0)

    def test_comments_and_crlf(self):
        inst, _ = parse_cnf("c header comment\r\np cnf 2 1\r\nc mid comment\r\n1 -2 0\r\n")
        assert inst.num_constraints == 1

    def test_clause_spanning_lines(self):
        inst, _ = parse_cnf("p cnf 3 2\n1 2\n3 0 -1\n-2 0\n")
        assert [c.arity for c in inst.constraints] == [3, 2]

    def test_missing_header(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("1 2 0\n")
        assert "header" in exc.value.message

    def test_duplicate_header(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 2 2\n1 0\np cnf 2 2\n2 0\n")
        assert exc.value.line == 3

    def test_too_few_clauses(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 2 3\n1 0\n2 0\n")
        assert "mismatch" in exc.value.message

    def test_too_many_clauses(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 2 1\n1 0\n2 0\n")
        assert "mismatch" in exc.value.message
        assert exc.value.line == 3

    def test_empty_clause(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 2 2\n1 0\n0\n")
        assert exc.value.line == 3
        assert "empty clause" in exc.value.message

    def test_duplicate_variable_in_clause(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 3 1\n1 -1 0\n")
        assert exc.value.line == 2

    def test_unterminated_clause(self):
        with pytest.raises(FormatError):
            parse_cnf("p cnf 2 1\n1 2\n")

    def test_non_integer_literal(self):
        with pytest.raises(FormatError) as exc:
            parse_cnf("p cnf 2 1\n1 x 0\n")
        assert exc.value.line == 2

    def test_satlib_trailer_warns(self):
        inst, diags = parse_cnf("p cnf 2 1\n1 2 0\n%\n0\n")
        assert inst.num_constraints == 1
        assert [line for line, _ in diags.warnings] == [3]

    def test_trailing_zero_line_warns(self):
        inst, diags = parse_cnf("p cnf 2 1\n1 2 0\n0\n")
        assert inst.num_constraints == 1
        assert [line for line, _ in diags.warnings] == [3]


class TestParseWcnf:
    def test_complementary_units(self):
        inst, _ = parse_wcnf("p wcnf 1 2\n1 1 0\n1 -1 0\n")
        assert inst.total_weight == 2.0
        from maxcsp import brute_force_optimum

        w_star, _ = brute_force_optimum(inst)
        assert w_star == 1.0

    def test_hard_clause_rejected(self):
        with pytest.raises(UnsupportedError) as exc:
            parse_wcnf("p wcnf 2 1 10\n10 1 2 0\n")
        assert "hard" in str(exc.value)

    def test_real_weights(self):
        inst, _ = parse_wcnf("p wcnf 2 2\n2.5 1 0\n0.5 -2 0\n")
        assert inst.total_weight == 3.0
        assert inst.weighted_length == 3.0
        assert not inst.integer_weights

    def test_nonpositive_weight(self):
        with pytest.raises(FormatError) as exc:
            parse_wcnf("p wcnf 1 1\n0 1 0\n")
        assert exc.value.line == 2
        with pytest.raises(FormatError):
            parse_wcnf("p wcnf 1 1\n-1.5 1 0\n")

    def test_weight_above_top_rejected(self):
        with pytest.raises(FormatError):
            parse_wcnf("p wcnf 1 1 5\n9 1 0\n")

    def test_soft_below_top_accepted(self):
        inst, _ = parse_wcnf("p wcnf 2 1 10\n3 1 2 0\n")
        assert inst.total_weight == 3.0

    @pytest.mark.parametrize("top", ["nan", "0", "-1", "-inf"])
    def test_top_must_be_positive(self, top):
        # a NaN top matches no weight, which would let a hard clause through,
        # and a non-positive one would fail only at the first clause line
        with pytest.raises(FormatError, match="top weight must be positive") as exc:
            parse_wcnf(f"c header\np wcnf 3 2 {top}\n1 1 0\n2 -2 3 0\n")
        assert exc.value.line == 2

    def test_infinite_top_marks_no_clause_hard(self):
        plain, _ = parse_wcnf("p wcnf 3 2\n1 1 0\n2 -2 3 0\n")
        inst, _ = parse_wcnf("p wcnf 3 2 inf\n1 1 0\n2 -2 3 0\n")
        assert inst == plain


class TestParseCsp:
    def test_unit_true_constraint(self):
        inst, diags = parse_csp("csp 1\nt 1 1 1 01\n")
        assert diags.source_kind == "csp"
        assert not inst.clause_built
        assert weight_of(inst, Assignment((1,))) == 1.0
        assert weight_of(inst, Assignment((0,))) == 0.0

    def test_xor_rows(self):
        inst, _ = parse_csp("csp 2\nt 1 2 1 2 0110\n")
        expected = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 0.0}
        for bits, w in expected.items():
            assert weight_of(inst, Assignment(bits)) == w

    def test_repeated_variable(self):
        with pytest.raises(FormatError) as exc:
            parse_csp("csp 2\nt 1 2 1 1 0110\n")
        assert exc.value.line == 2

    def test_table_length_mismatch(self):
        with pytest.raises(FormatError) as exc:
            parse_csp("csp 2\nt 1 2 1 2 011\n")
        assert exc.value.line == 2

    def test_arity_cap(self):
        header = "csp 21\n"
        line = "t 1 21 " + " ".join(str(v) for v in range(1, 22)) + " " + "0" * (1 << 21)
        with pytest.raises(FormatError):
            parse_csp(header + line + "\n")

    def test_comments_and_blanks(self):
        inst, _ = parse_csp("# a comment\n\ncsp 2\n\nt 1 2 1 2 0110\n")
        assert inst.num_constraints == 1

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_csp("t 1 1 1 01\n")

    def test_no_constraints(self):
        with pytest.raises(FormatError):
            parse_csp("csp 3\n")

    def test_variable_out_of_range(self):
        with pytest.raises(FormatError):
            parse_csp("csp 1\nt 1 2 1 2 0110\n")


_LONG_CLAUSE = " ".join(map(str, range(1, 11))) + "\n" + " ".join(map(str, range(11, 22))) + " 0\n"


@pytest.mark.parametrize(
    "parser, text, line",
    [
        (parse_cnf, "p wcnf 2 1\n1 1 0\n", 1),
        (parse_cnf, "p cnf 2\n1 0\n", 1),
        (parse_wcnf, "p wcnf 2 1 9 9\n1 1 0\n", 1),
        (parse_cnf, "p cnf two 1\n1 0\n", 1),
        (parse_cnf, "p cnf 0 1\n1 0\n", 1),
        (parse_wcnf, "p wcnf 2 1 top\n1 1 0\n", 1),
        (parse_cnf, "c only\nc comments\n", 2),
        (parse_wcnf, "p wcnf 2 1\nw 1 0\n", 2),
        (parse_wcnf, "p wcnf 2 2\n1 1 0\ninf 2 0\n", 3),
        (parse_cnf, "p cnf 2 1\n1 p 0\n", 2),
        (parse_cnf, "p cnf 21 1\n" + _LONG_CLAUSE, 2),
        (parse_csp, "csp x\n", 1),
        (parse_csp, "csp 0\n", 1),
        (parse_csp, "csp 2\nu 1 1 1 01\n", 2),
        (parse_csp, "csp 2\nt 1 1\n", 2),
        (parse_csp, "csp 2\nt w 1 1 01\n", 2),
        (parse_csp, "csp 2\nt 1 a 1 01\n", 2),
        (parse_csp, "csp 2\nt 1 2 1 0110\n", 2),
        (parse_csp, "csp 2\nt 1 1 x 01\n", 2),
        (parse_csp, "# only\n\n# comments\n", 3),
    ],
    ids=[
        "dimacs-wrong-kind",
        "dimacs-field-count",
        "wcnf-field-count",
        "dimacs-counts-not-integers",
        "dimacs-counts-below-one",
        "wcnf-top-not-number",
        "dimacs-no-header",
        "wcnf-weight-not-number",
        "wcnf-weight-not-finite",
        "dimacs-p-in-clause-data",
        "dimacs-21-literals-at-start-line",
        "csp-n-not-integer",
        "csp-n-below-one",
        "csp-no-leading-t",
        "csp-truncated",
        "csp-weight-not-number",
        "csp-arity-not-integer",
        "csp-field-count",
        "csp-variable-not-integer",
        "csp-no-header",
    ],
)
def test_parser_rejections(parser, text, line):
    with pytest.raises(FormatError) as exc:
        parser(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text",
    ["p wcnf 2 1\n1e308 1 2 0\n", "p wcnf 2 2\n1e308 1 0\n1e308 2 0\n"],
    ids=["length", "weight"],
)
def test_overflowing_totals_rejected(text):
    # each is a valid weight, but the weighted length sums to inf
    with pytest.raises(DomainError, match="overflows"):
        parse_wcnf(text)


class TestSerialize:
    def test_cnf_roundtrip(self):
        text = "p cnf 4 2\n1 2 3 0\n-1 2 -4 0\n"
        inst, _ = parse_cnf(text)
        assert serialize(inst, "cnf") == text
        again, _ = parse_cnf(serialize(inst, "cnf"))
        assert again == inst

    def test_unit_weights_as_wcnf(self):
        inst, _ = parse_cnf("p cnf 2 2\n1 2 0\n-1 0\n")
        out = serialize(inst, "wcnf")
        assert out.splitlines()[0] == "p wcnf 2 2"
        assert all(line.startswith("1 ") for line in out.splitlines()[1:])

    def test_xor_roundtrip_preserves_table(self):
        inst, _ = parse_csp("csp 2\nt 1 2 1 2 0110\n")
        out = serialize(inst, "csp")
        again, _ = parse_csp(out)
        assert again == inst
        assert again.constraints[0].table_string == "0110"

    def test_cnf_requires_clause_built(self):
        inst, _ = parse_csp("csp 2\nt 1 2 1 2 0111\n")  # a clause table, but csp-built
        with pytest.raises(UnsupportedError):
            serialize(inst, "cnf")

    def test_cnf_requires_unit_weights(self):
        inst, _ = parse_wcnf("p wcnf 2 1\n2 1 2 0\n")
        with pytest.raises(UnsupportedError):
            serialize(inst, "cnf")

    def test_unknown_kind(self):
        inst, _ = parse_cnf("p cnf 1 1\n1 0\n")
        with pytest.raises(UnsupportedError):
            serialize(inst, "qdimacs")

    def test_csp_instance_as_wcnf(self):
        inst, _ = parse_csp("csp 2\nt 1 2 1 2 0111\n")
        with pytest.raises(UnsupportedError, match="wcnf"):
            serialize(inst, "wcnf")

    def test_real_weight_tokens_roundtrip(self):
        inst, _ = parse_wcnf("p wcnf 2 2\n2.5 1 0\n0.125 -2 0\n")
        out = serialize(inst, "wcnf")
        again, _ = parse_wcnf(out)
        assert [c.weight for c in again.constraints] == [2.5, 0.125]


@pytest.mark.parametrize(
    "builder,kind",
    [(random_ekcnf, "cnf"), (random_wcnf, "wcnf"), (random_csp, "csp")],
)
def test_roundtrip_random_instances(builder, kind):
    for seed in range(25):
        if builder is random_ekcnf:
            inst = builder(8, 12, 3, seed)
        else:
            inst = builder(8, 12, 3, seed)
        text = serialize(inst, kind)
        again, diags = parse(text, kind)
        assert again == inst
        assert diags.warnings == []
        assert serialize(again, kind) == text


class TestDetect:
    def test_kinds(self):
        assert detect_format("c x\np cnf 1 1\n1 0\n") == "cnf"
        assert detect_format("p wcnf 1 1\n1 1 0\n") == "wcnf"
        assert detect_format("# note\ncsp 1\nt 1 1 1 01\n") == "csp"

    def test_unknown(self):
        with pytest.raises(FormatError):
            detect_format("hello world\n")
        with pytest.raises(FormatError):
            detect_format("")

    def test_parse_dispatch(self):
        inst, diags = parse("csp 1\nt 1 1 1 01\n")
        assert diags.source_kind == "csp"
        inst, diags = parse("p wcnf 1 1\n2 1 0\n")
        assert diags.source_kind == "wcnf"

    def test_parse_unknown_kind(self):
        with pytest.raises(UnsupportedError, match="xyz"):
            parse("p cnf 1 1\n1 0\n", "xyz")
