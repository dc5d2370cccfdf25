import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabl.errors import ConflictError, DomainError, ParseError
from cabl.ingest import CSV_HEADER, FIXTURE_NAMES, Dataset, fixture, parse_csv, parse_rows
from cabl.model import Basis, Element, Kind, Location

HEADER = ",".join(CSV_HEADER)


# Every fixture specimen in dataset order: id, kind, lot, location and
# (element, mean, se, df, n) in series order.  table3 lists Sb before Ag.
FIXTURE_SNAPSHOT = {
    "table1": [
        ("CE 399", "bullet", None, None, [("Ag", 8.8, 0.5, None, 1), ("Sb", 833.0, 9.0, None, 1)]),
        ("CE 842", "fragment", None, None, [("Ag", 9.8, 0.5, None, 1), ("Sb", 797.0, 7.0, None, 1)]),
        ("CE 567", "fragment", None, None, [("Ag", 8.1, 0.6, None, 1), ("Sb", 602.0, 4.0, None, 1)]),
        ("CE 843", "fragment", None, None, [("Ag", 7.9, 0.3, None, 1), ("Sb", 621.0, 4.0, None, 1)]),
        ("CE 840", "fragment", None, None, [("Ag", 8.2, 0.4, 2, 3), ("Sb", 642.0, 6.0, 2, 3)]),
    ],
    "table2": [
        ("bullet-1-outer", "bullet_section", "6003", "outer", [("Ag", 6.3, 0.13, 3, 4), ("Sb", 578.0, 9.75, 3, 4)]),
        ("bullet-1-middle", "bullet_section", "6003", "middle", [("Ag", 6.66, 0.05, 2, 3), ("Sb", 585.0, 6.97, 2, 3)]),
        ("bullet-1-inner", "bullet_section", "6003", "inner", [("Ag", 6.35, 0.14, 3, 4), ("Sb", 581.0, 7.56, 3, 4)]),
        ("bullet-1", "bullet", "6003", None, [("Ag", 6.3, 0.06, 19, 20), ("Sb", 576.0, 3.47, 17, 18)]),
    ],
    "table3": [
        ("bullet-1-outer", "bullet_section", "6003", "outer", [("Sb", 578.0, 19.5, 3, 4), ("Ag", 6.3, 0.26, 3, 4)]),
        ("bullet-1-middle", "bullet_section", "6003", "middle", [("Sb", 585.0, 12.1, 2, 3), ("Ag", 6.66, 0.09, 2, 3)]),
        ("bullet-1-inner", "bullet_section", "6003", "inner", [("Sb", 581.0, 15.1, 3, 4), ("Ag", 6.35, 0.27, 3, 4)]),
        ("bullet-1", "bullet", "6003", None, [("Sb", 576.0, 3.47, 17, 18), ("Ag", 6.3, 0.06, 19, 20)]),
        ("bullet-8-outer", "bullet_section", "6003", "outer", [("Sb", 957.0, 4.86, 2, 3), ("Ag", 6.9, 0.14, 2, 3)]),
        ("bullet-8-middle", "bullet_section", "6003", "middle", [("Sb", 952.0, 17.4, 2, 3), ("Ag", 6.79, 0.16, 2, 3)]),
        ("bullet-8-inner", "bullet_section", "6003", "inner", [("Sb", 963.0, 16.3, 2, 3), ("Ag", 6.73, 0.18, 2, 3)]),
        ("bullet-8", "bullet", "6003", None, [("Sb", 966.0, 7.32, 11, 12), ("Ag", 6.81, 0.04, 17, 18)]),
        ("bullet-9-outer", "bullet_section", "6003", "outer", [("Sb", 1829.0, 61.4, 2, 3), ("Ag", 8.71, 0.38, 2, 3)]),
        ("bullet-9-middle", "bullet_section", "6003", "middle", [("Sb", 1806.0, 18.1, 2, 3), ("Ag", 8.51, 0.28, 2, 3)]),
        ("bullet-9-inner", "bullet_section", "6003", "inner", [("Sb", 1869.0, 13.4, 2, 3), ("Ag", 8.68, 0.42, 2, 3)]),
        ("bullet-9", "bullet", "6003", None, [("Sb", 1834.0, 14.3, 8, 9), ("Ag", 8.66, 0.08, 17, 18)]),
        ("bullet-10-outer", "bullet_section", "6003", "outer", [("Sb", 260.0, 10.0, 2, 3), ("Ag", 5.04, 0.25, 2, 3)]),
        ("bullet-10-middle", "bullet_section", "6003", "middle", [("Sb", 262.0, 0.18, 2, 3), ("Ag", 5.21, 0.09, 2, 3)]),
        ("bullet-10-inner", "bullet_section", "6003", "inner", [("Sb", 258.0, 4.69, 2, 3), ("Ag", 5.14, 0.16, 2, 3)]),
        ("bullet-10", "bullet", "6003", None, [("Sb", 260.0, 1.93, 8, 9), ("Ag", 5.04, 0.05, 17, 18)]),
    ],
}


def csv_text(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


# small integers make tied replicate values common
_values = st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 1000.0))
_ids = st.lists(st.text("abxyz", min_size=1, max_size=3), min_size=2, max_size=6, unique=True)
_kinds = st.sampled_from(list(Kind))
_lots = st.sampled_from(["", "L1", "L2"])
_locations = st.lists(st.sampled_from(list(Location)), min_size=1, max_size=2, unique=True)
_elements = st.lists(st.sampled_from(list(Element)), min_size=1, max_size=3, unique=True)
_bases = st.sampled_from(list(Basis))
_sigmas = st.floats(0.0, 50.0)
_replicates = st.lists(_values, min_size=2, max_size=4)


@st.composite
def measurement_rows(draw):
    """Fault-free CSV data rows of several specimens over several lots:
    single-count series and replicate groups, each group at one location
    drawn from one or two per specimen.  The strategies are built once,
    above, as building them anew for each draw took most of the time."""
    rows = []
    for sid in draw(_ids):
        head = f"{sid},{draw(_kinds)},{draw(_lots)}"
        locations = draw(_locations)
        for element in draw(_elements):
            location = draw(st.sampled_from(locations))
            if draw(_bases) is Basis.POISSON_SINGLE:
                sigma = draw(_sigmas)
                rows.append(f"{head},{location},{element},{draw(_values)!r},{sigma!r},poisson_single")
                continue
            for value in draw(_replicates):
                rows.append(f"{head},{location},{element},{value!r},,replicate_member")
    return rows


class TestParseCsv:
    def test_poisson_single_row(self):
        ds = parse_csv(csv_text("CE 399,fragment,,unlabeled,Ag,8.8,0.5,poisson_single"))
        s = ds.get("CE 399")
        assert s.kind is Kind.FRAGMENT
        series = s.series[Element.AG]
        assert (series.mean, series.se, series.df, series.n) == (8.8, 0.5, None, 1)

    def test_empty_body(self):
        ds = parse_csv(HEADER + "\n")
        assert len(ds) == 0

    def test_replicates_aggregate(self):
        ds = parse_csv(
            csv_text(
                "b1,bullet,6003,middle,Ag,6.30,,replicate_member",
                "b1,bullet,6003,middle,Ag,6.66,,replicate_member",
                "b1,bullet,6003,middle,Ag,6.35,,replicate_member",
            )
        )
        series = ds.get("b1").series[Element.AG]
        assert series.mean == pytest.approx(6.436666666666667, abs=1e-12)
        assert series.se == pytest.approx(0.11259563836036371, abs=1e-12)
        assert series.df == 2 and series.n == 3
        assert ds.get("b1").location is Location.MIDDLE
        assert ds.get("b1").lot == "6003"

    def test_aggregation_is_order_independent(self):
        rows = [
            "b1,bullet,,inner,Sb,578.1,,replicate_member",
            "b1,bullet,,inner,Sb,579.9,,replicate_member",
            "b1,bullet,,inner,Sb,581.3,,replicate_member",
            "b1,bullet,,inner,Sb,577.7,,replicate_member",
        ]
        base = parse_csv(csv_text(*rows)).get("b1").series[Element.SB]
        for perm in ([3, 1, 0, 2], [1, 0, 3, 2], [2, 3, 1, 0]):
            shuffled = parse_csv(csv_text(*[rows[i] for i in perm])).get("b1").series[Element.SB]
            assert shuffled == base  # exact float equality

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(
                csv_text(
                    "CE 399,fragment,,unlabeled,Ag,8.8,0.5,poisson_single",
                    "CE 842,fragment,,unlabeled",
                )
            )

    def test_unknown_element_reports_line(self):
        with pytest.raises(ParseError, match="line 2.*unknown element"):
            parse_csv(csv_text("x,fragment,,unlabeled,Pb,1.0,0.5,poisson_single"))

    def test_duplicate_poisson_conflict(self):
        with pytest.raises(ConflictError, match="duplicate"):
            parse_csv(
                csv_text(
                    "x,fragment,,unlabeled,Ag,8.8,0.5,poisson_single",
                    "x,fragment,,unlabeled,Ag,9.0,0.4,poisson_single",
                )
            )

    def test_negative_value_is_domain_error(self):
        with pytest.raises(DomainError, match="value_ppm"):
            parse_csv(csv_text("x,fragment,,unlabeled,Ag,-8.8,0.5,poisson_single"))

    def test_negative_sigma_is_domain_error(self):
        with pytest.raises(DomainError, match="sigma_ppm"):
            parse_csv(csv_text("x,fragment,,unlabeled,Ag,8.8,-0.5,poisson_single"))

    def test_replicate_with_sigma_rejected(self):
        with pytest.raises(ParseError, match="sigma"):
            parse_csv(csv_text("x,fragment,,unlabeled,Ag,8.8,0.5,replicate_member"))

    def test_poisson_without_sigma_rejected(self):
        with pytest.raises(ParseError, match="sigma"):
            parse_csv(csv_text("x,fragment,,unlabeled,Ag,8.8,,poisson_single"))

    def test_unknown_basis(self):
        with pytest.raises(ParseError, match="basis"):
            parse_csv(csv_text("x,fragment,,unlabeled,Ag,8.8,0.5,bayesian"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,pellet,,unlabeled,Ag,8.8,0.5,poisson_single", "unknown kind 'pellet' (have: "),
            ("x,fragment,,rim,Ag,8.8,0.5,poisson_single", "unknown location 'rim' (have: "),
            ("x,fragment,,unlabeled,Ag,8.8,0.5,bayesian", "unknown basis 'bayesian' (have: "),
            # tokens are case sensitive
            ("x,fragment,,unlabeled,sb,600,4,poisson_single", "unknown element 'sb' (have: "),
            ("x,BULLET,,unlabeled,Ag,8.8,0.5,poisson_single", "unknown kind 'BULLET' (have: "),
            ("x,fragment,,Outer,Ag,8.8,0.5,poisson_single", "unknown location 'Outer' (have: "),
        ],
        ids=["kind", "location", "basis", "element-case", "kind-case", "location-case"],
    )
    def test_unknown_token_reports_line(self, row, message):
        text = csv_text("CE 399,fragment,,unlabeled,Ag,8.8,0.5,poisson_single", row)
        with pytest.raises(ParseError) as info:
            parse_rows(text)
        assert str(info.value).startswith(f"line 3: {message}")
        assert info.value.line == 3

    def test_kind_change_conflict(self):
        with pytest.raises(ConflictError, match="kind"):
            parse_csv(
                csv_text(
                    "x,fragment,,unlabeled,Ag,8.8,0.5,poisson_single",
                    "x,bullet,,unlabeled,Sb,600,4,poisson_single",
                )
            )

    def test_lot_change_conflict(self):
        with pytest.raises(ConflictError, match="lot"):
            parse_csv(
                csv_text(
                    "x,fragment,6000,unlabeled,Ag,8.8,0.5,poisson_single",
                    "x,fragment,6003,unlabeled,Sb,600,4,poisson_single",
                )
            )

    def test_single_replicate_row_rejected(self):
        with pytest.raises(ParseError, match="single replicate"):
            parse_csv(csv_text("x,fragment,,unlabeled,Ag,8.8,,replicate_member"))

    def test_mixed_bases_conflict(self):
        with pytest.raises(ConflictError, match="mixes"):
            parse_csv(
                csv_text(
                    "x,fragment,,unlabeled,Ag,8.8,0.5,poisson_single",
                    "x,fragment,,unlabeled,Ag,8.9,,replicate_member",
                    "x,fragment,,unlabeled,Ag,9.0,,replicate_member",
                )
            )

    def test_replicates_at_two_locations_conflict(self):
        with pytest.raises(ConflictError, match="locations"):
            parse_csv(
                csv_text(
                    "x,bullet,,outer,Ag,8.8,,replicate_member",
                    "x,bullet,,outer,Ag,8.9,,replicate_member",
                    "x,bullet,,inner,Ag,9.0,,replicate_member",
                    "x,bullet,,inner,Ag,9.1,,replicate_member",
                )
            )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_row_order_does_not_change_specimens(self, data):
        rows = data.draw(measurement_rows())
        shuffled = data.draw(st.permutations(rows))
        base = {s.id: s for s in parse_csv(csv_text(*rows))}
        ds = parse_csv(csv_text(*shuffled))
        assert {s.id: s for s in ds} == base  # exact float equality
        # specimens come out in order of first appearance
        assert [s.id for s in ds] == list(dict.fromkeys(row.split(",")[0] for row in shuffled))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a kind or lot conflict is found before any specimen is built
            (("x,fragment,,,Ag,8.8,0.5,poisson_single", "x,fragment,,,Ag,9.0,0.4,poisson_single",
              "y,fragment,,,Ag,8.8,0.5,poisson_single", "y,bullet,,,Sb,600,4,poisson_single"),
             "specimen 'y' changes kind"),
            (("x,bullet,,,Ag,8.8,,replicate_member", "y,bullet,L1,,Ag,8.8,0.5,poisson_single",
              "y,bullet,L2,,Sb,600,4,poisson_single"),
             "specimen 'y' changes lot"),
            # then the first specimen in file order with a fault is named
            (("z,bullet,,,Ag,8.8,,replicate_member", "a,bullet,,,Ag,8.8,,replicate_member",
              "a,bullet,,,Ag,9.0,,replicate_member", "a,bullet,,,Sb,600,,replicate_member"),
             "specimen 'z' Ag has a single replicate_member row"),
            (("z,bullet,,,Sb,600,,replicate_member", "a,fragment,,,Ag,8.8,0.5,poisson_single",
              "a,fragment,,,Ag,9.0,0.4,poisson_single"),
             "specimen 'z' Sb has a single replicate_member row"),
        ],
        ids=["kind", "lot", "replicates", "duplicate"],
    )
    def test_first_fault_in_file_order_is_reported(self, rows, message):
        with pytest.raises((ConflictError, ParseError), match=message):
            parse_csv(csv_text(*rows))

    def test_empty_location_means_unlabeled(self):
        ds = parse_csv(csv_text("x,fragment,,,Ag,8.8,0.5,poisson_single"))
        assert ds.get("x").location is None


class TestParseRows:
    def test_rows_preserved(self):
        rows = parse_rows(
            csv_text(
                "b1,bullet,6003,outer,Ag,6.30,,replicate_member",
                "b1,bullet,6003,outer,Ag,6.35,,replicate_member",
            )
        )
        assert len(rows) == 2
        assert rows[0].value == 6.30
        assert rows[1].location is Location.OUTER

    @pytest.mark.parametrize("cls", [Kind, Location, Element, Basis])
    def test_every_token_reads_as_its_member(self, cls):
        tokens = {Kind: "fragment", Location: "unlabeled", Element: "Ag", Basis: "poisson_single"}
        field = {Kind: "kind", Location: "location", Element: "element", Basis: "basis"}[cls]
        for member in cls:
            cells = {**tokens, cls: member.value}
            sigma = "0.5" if cells[Basis] == "poisson_single" else ""
            row = f"x,{cells[Kind]},,{cells[Location]},{cells[Element]},8.8,{sigma},{cells[Basis]}"
            (parsed,) = parse_rows(csv_text(row))
            assert getattr(parsed, field) is cls(member.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("x" * 131_073 + "\n", 1),
            (csv_text("x,fragment,,unlabeled,Ag,8.8,0.5,poisson_single", "", "y" * 131_073), 4),
        ],
        ids=["header", "after-blank-line"],
    )
    def test_csv_module_refusal_names_its_record(self, text, line):
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            parse_rows(text)
        assert info.value.line == line


class TestFixtures:
    def test_snapshot(self):
        assert FIXTURE_NAMES == tuple(FIXTURE_SNAPSHOT)
        for name, expected in FIXTURE_SNAPSHOT.items():
            ds = fixture(name)
            assert ds.provenance == f"fixture:{name}"
            got = [
                (
                    s.id,
                    s.kind.value,
                    s.lot,
                    s.location.value if s.location else None,
                    [(e.value, x.mean, x.se, x.df, x.n) for e, x in s.series.items()],
                )
                for s in ds
            ]
            assert got == expected, name

    def test_table1_values(self):
        ds = fixture("table1")
        assert len(ds) == 5
        ce840_sb = ds.get("CE 840").series[Element.SB]
        assert (ce840_sb.mean, ce840_sb.se, ce840_sb.df, ce840_sb.n) == (642.0, 6.0, 2, 3)
        ce399_ag = ds.get("CE 399").series[Element.AG]
        assert (ce399_ag.mean, ce399_ag.se, ce399_ag.df) == (8.8, 0.5, None)
        # only CE 840 carries replicate-based uncertainty
        for s in ds:
            for series in s.series.values():
                assert (series.df is None) == (s.id != "CE 840")

    def test_table2_values(self):
        ds = fixture("table2")
        middle = ds.get("bullet-1-middle").series[Element.AG]
        assert (middle.mean, middle.se, middle.df) == (6.66, 0.05, 2)
        combined = ds.get("bullet-1").series[Element.SB]
        assert (combined.mean, combined.se, combined.df, combined.n) == (576.0, 3.47, 17, 18)
        assert ds.get("bullet-1-outer").location is Location.OUTER
        assert ds.get("bullet-1").location is None
        assert all(s.lot == "6003" for s in ds)

    def test_table3_values(self):
        ds = fixture("table3")
        assert len(ds) == 16
        whole10 = ds.get("bullet-10").series[Element.SB]
        assert (whole10.mean, whole10.se, whole10.n) == (260.0, 1.93, 9)
        outer9 = ds.get("bullet-9-outer").series[Element.SB]
        assert (outer9.mean, outer9.se, outer9.n) == (1829.0, 61.4, 3)
        whole = [s for s in ds if s.kind is Kind.BULLET]
        assert sorted(s.id for s in whole) == [
            "bullet-1",
            "bullet-10",
            "bullet-8",
            "bullet-9",
        ]

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            fixture("table9")


class TestDataset:
    def test_get_missing(self):
        with pytest.raises(KeyError, match="no specimen 'CE 000' in fixture:table1"):
            fixture("table1").get("CE 000")

    def test_get_finds_every_specimen(self):
        ds = fixture("table3")
        assert [ds.get(s.id) for s in ds] == list(ds.specimens)

    def test_duplicate_ids_rejected(self):
        s = fixture("table1").get("CE 399")
        with pytest.raises(ConflictError):
            Dataset(specimens=(s, s), provenance="dup")
