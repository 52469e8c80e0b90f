import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fig8_path() -> pathlib.Path:
    return FIXTURES / "fig8.json"


@pytest.fixture(scope="session")
def fig8_doc(fig8_path):
    return json.loads(fig8_path.read_text())


@pytest.fixture(scope="session")
def fig8(fig8_doc):
    from cvol.triangulation import parse_triangulation

    return parse_triangulation(fig8_doc)


@pytest.fixture(scope="session")
def fig8_shapes(fig8):
    from cvol.gluing import solve_shapes

    return solve_shapes(fig8).shapes


@pytest.fixture(scope="session")
def fig8_cover3():
    from cvol.triangulation import parse_triangulation

    return parse_triangulation(
        json.loads((FIXTURES / "fig8_cover3.json").read_text())
    )


@pytest.fixture(scope="session")
def fig8_cover3_shapes(fig8_cover3):
    from cvol.gluing import solve_shapes

    return solve_shapes(fig8_cover3).shapes
