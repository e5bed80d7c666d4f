"""Every file reader parses its input or refuses it with one ValueError
whose message starts with the file's path: a Hypothesis property over
arbitrary bytes, weighted toward the pieces the formats are made of."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edlab.core import read_instance
from edlab.profiles import read_profile
from edlab.setint import read_si_instance

PIECES = [b"0", b"1", b"7", b"42", b"-", b"+", b"\r", b"\n", b"A:", b"B:",
          b"\xff", b" ", b"_", "\u0661".encode("utf-8")]
# whole lines of a well-formed file often enough that every reader also
# parses some inputs, and lines of pieces and raw bytes between them
LINES = st.one_of(
    st.sampled_from([b"A:", b"B:", b"0", b"1", b"-3", b"42", b""]),
    st.lists(st.one_of(st.sampled_from(PIECES),
                       st.binary(min_size=1, max_size=4)),
             max_size=4).map(b"".join))
SECTIONS = st.builds(lambda a, b: [b"A:", *a, b"B:", *b],
                     st.lists(LINES, max_size=5), st.lists(LINES, max_size=5))
FILES = st.builds(bytes.join, st.sampled_from([b"\n", b"\r\n"]),
                  st.one_of(st.lists(LINES, max_size=12), SECTIONS))


@pytest.mark.parametrize("reader", [read_instance, read_profile,
                                    read_si_instance])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=FILES)
def test_a_reader_parses_a_file_or_names_it(reader, data, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(data)
    try:
        reader(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), (data, str(exc))
