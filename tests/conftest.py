import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run; each test keeps its
# own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from srgfusion.classifier import classify_all
from srgfusion.fusion import scan_all
from srgfusion.products import tensor_square_table
from srgfusion.scheme import SrgParams, char_table, eigen_from_params


def scan_strings(eigen):
    table = tensor_square_table(char_table(eigen))
    return {str(v.partition) for v in scan_all(table)}


@pytest.fixture(scope="session")
def classification():
    """The full 4140-partition classification, computed once per session."""
    return classify_all()


@pytest.fixture(scope="session")
def petersen_eigen():
    return eigen_from_params(SrgParams(10, 3, 0, 1))


@pytest.fixture(scope="session")
def petersen_tensor(petersen_eigen):
    return tensor_square_table(char_table(petersen_eigen))
