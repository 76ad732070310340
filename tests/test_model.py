import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutstock.model import (
    Instance,
    InstanceError,
    ItemType,
    Placement,
    Solution,
    SolutionError,
    expand_demands,
    format_instance,
    parse_instance,
    read_solution,
    relabel_sheets,
    write_solution,
)

from conftest import DEMO_PLACEMENTS, DEMO_TEXT


def test_parse_demo():
    inst = parse_instance(DEMO_TEXT)
    assert inst.sheet_width == 6 and inst.sheet_height == 4
    assert inst.types == (ItemType(3, 2, 3), ItemType(2, 2, 3))


def test_parse_minimal():
    inst = parse_instance("10 10\n1\n1 1 1\n")
    assert inst.sheet_width == 10
    assert inst.types == (ItemType(1, 1, 1),)


def test_parse_comments_and_whitespace():
    text = "# header\n  6 4 \n# count\n2\n3 2 3\n\n2 2 3\n"
    assert parse_instance(text) == parse_instance(DEMO_TEXT)


def test_parse_rejects_unfittable_type():
    with pytest.raises(InstanceError, match="does not fit"):
        parse_instance("6 4\n1\n7 5 1\n")


@pytest.mark.parametrize("rotation, mode", [(False, "unrotated"), (True, "in any orientation")])
def test_unfittable_type_error_names_no_line(rotation, mode):
    with pytest.raises(InstanceError) as info:
        parse_instance("6 4\n1\n7 5 1\n", rotation=rotation)
    assert str(info.value) == f"item type 0 (7x5) does not fit the 6x4 sheet {mode}"
    assert info.value.line is None


def test_parse_rotation_mode_fit():
    text = "6 4\n1\n3 5 1\n"  # only fits rotated
    inst = parse_instance(text, rotation=True)
    assert inst.types[0] == ItemType(3, 5, 1)
    with pytest.raises(InstanceError):
        parse_instance(text, rotation=False)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("6\n1\n2 2 1\n", "sheet size"),
        ("6 4\n", "type count"),
        ("6 4\n2\n3 2 3\n", "type lines"),
        ("6 4\n1\n3 x 3\n", "non-integer"),
        ("6 4\n1\n3 0 3\n", "non-positive"),
        ("6 4\n1\n3 2 0\n", "demand"),
        ("0 4\n1\n3 2 1\n", "sheet size"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError, match=fragment):
        parse_instance(text)


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceError, match="line 3"):
        parse_instance("6 4\n2\nbad line here\n2 2 3\n")


def test_expand_demands_demo(demo):
    copies = expand_demands(demo)
    assert len(copies) == 6
    assert [(c.type_index, c.ordinal) for c in copies] == [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)
    ]
    assert copies[0].width == 3 and copies[3].width == 2


def test_expand_demands_ordering():
    inst = Instance(6, 6, (ItemType(2, 3, 2), ItemType(1, 1, 3)))
    copies = expand_demands(inst)
    assert [(c.type_index, c.ordinal) for c in copies] == [
        (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)
    ]


@st.composite
def instances(draw):
    w = draw(st.integers(1, 9))
    h = draw(st.integers(1, 9))
    types = draw(
        st.lists(
            st.tuples(st.integers(1, w), st.integers(1, h), st.integers(1, 5)),
            min_size=1,
            max_size=4,
        )
    )
    return Instance(w, h, tuple(ItemType(*t) for t in types))


@given(instances())
def test_expand_length_matches_total_demand(inst):
    assert len(expand_demands(inst)) == sum(t.demand for t in inst.types)


@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst


def demo_solution(inst) -> Solution:
    copies = {(c.type_index, c.ordinal): c for c in expand_demands(inst)}
    placements = tuple(
        Placement(copies[(t, o)], sheet, x, y, bool(r))
        for t, o, sheet, x, y, r in DEMO_PLACEMENTS
    )
    return Solution(inst, placements)


def test_solution_round_trip(demo):
    sol = demo_solution(demo)
    assert sol.sheets_used == 2
    again = read_solution(write_solution(sol), demo)
    assert again == sol


def test_read_solution_rejects_boundary_violation(demo):
    sol = demo_solution(demo)
    text = write_solution(sol).replace("0 2 1 3 0 0", "0 2 1 4 0 0")  # x+3 > 6
    with pytest.raises(SolutionError, match="exceeds"):
        read_solution(text, demo)


def test_read_solution_rejects_missing_copy(demo):
    sol = demo_solution(demo)
    lines = write_solution(sol).splitlines()
    del lines[2]
    with pytest.raises(SolutionError):
        read_solution("\n".join(lines) + "\n", demo)


def test_read_solution_rejects_duplicate_copy(demo):
    sol = demo_solution(demo)
    lines = write_solution(sol).splitlines()
    lines[2] = lines[1]
    with pytest.raises(SolutionError, match="duplicate"):
        read_solution("\n".join(lines) + "\n", demo)


def test_read_solution_rejects_bad_header_count(demo):
    sol = demo_solution(demo)
    text = write_solution(sol).replace("2 6", "3 6", 1)
    with pytest.raises(SolutionError, match="sheets"):
        read_solution(text, demo)


def test_relabel_sheets(demo):
    sol = demo_solution(demo)
    shifted = Solution(
        demo,
        tuple(Placement(p.copy, p.sheet * 3, p.x, p.y, p.rotated) for p in sol.placements),
    )
    compact = relabel_sheets(shifted)
    assert compact.sheets_used == 2
    assert {p.sheet for p in compact.placements} == {1, 2}
