"""Generator checksums, so a workload's inputs cannot change by accident."""

import numpy as np
import pytest

import gen
import workloads


def test_generator_checksums():
    assert gen.checksum(gen.tiny8(2000, 0)) == "2f51a85032b02afd"
    assert gen.checksum(gen.tiny8(2000, 1)) == "b1109ab0f05139f6"
    assert gen.checksum(gen.gaussian(1000, 0)) == "945cde8684d4c2df"
    assert gen.checksum(gen.arrivals(100.0, 4.0, [0, 0])) == "b12537a143ff9624"
    pool = gen.gaussian(64, 5, dim=4)
    assert gen.checksum(gen.uniform_queries(pool, 100, [0, 1])) == "09a0e591b4363a61"
    assert gen.checksum(gen.hotkey_queries(pool, 100, [0, 1])) == "83303e23e286d8f0"
    assert list(np.flatnonzero(gen.write_mask(300, 100, [0, 2]))) == [97, 197, 297]


@pytest.mark.parametrize(
    "name, digests",
    [
        ("offline-lowdim", ["853a0b37525bf76c", "4e1a9db0da6b1c0a"]),
        ("offline-highdim", ["6f406985bbb7f3af", "06cc6c6978b7fb20"]),
        ("serve-uniform", ["853a0b37525bf76c", "4e1a9db0da6b1c0a"]),
        ("serve-hotkey-writes", ["2bac767c6020570e", "87d2f4f2d3af0f69", "8dccaa04a3334fdc"]),
    ],
)
def test_workload_input_checksums(name, digests):
    arrays = workloads.make_inputs(workloads.smoke(workloads.WORKLOADS[name]), 0)
    assert [gen.checksum(a) for a in arrays if a.size] == digests


def test_arrivals_follow_the_rate():
    due = gen.arrivals(200.0, 10.0, [1])
    assert np.all(np.diff(due) >= 0) and 0 <= due[0] and due[-1] < 10.0
    assert 0.9 * 2000 < due.size < 1.1 * 2000
