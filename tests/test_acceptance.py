"""End-to-end acceptance run, one test per criterion.

Each test prints a PASS/FAIL line for every check in its group (visible
with -rA or -s, and in the captured output on failure) and fails if any
check in the group failed.  The expensive shared inputs, the 36-point
hopping grid and the gate run, come from session fixtures so each
runtime budget is measured on one computation.
"""

from diskchain import verify


def report(results):
    failed = []
    for r in results:
        line = (f"{'PASS' if r.passed else 'FAIL'}  [{r.criterion}] {r.name}: "
                f"measured {r.measured}, expected {r.expected}")
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        if not r.passed:
            failed.append(r.name)
    assert results, "criterion produced no checks"
    assert not failed, f"failed acceptance checks: {failed}"


def by_criterion(rows, n):
    picked = [r for r in rows if r.criterion == n]
    assert picked, f"no checks tagged with criterion {n}"
    return picked


def test_criterion_1_resonant_thickness_table(config):
    report(verify.check_table1(config))


def test_criterion_2_hopping_magnitudes(hopping):
    data, elapsed = hopping
    report(verify.check_hopping(data, elapsed))


def test_criterion_3_exponential_decay_fits(hopping):
    data, _ = hopping
    report(verify.check_decay_fits(data))


def test_criterion_4_confinement_ordering(hopping):
    data, _ = hopping
    report(verify.check_mode_ordering(data))


def test_criterion_5_cz_truth_table(gate_checks):
    report(by_criterion(gate_checks, 5))


def test_criterion_6_propagator_cross_checks(gate_checks):
    report(by_criterion(gate_checks, 6))


def test_criterion_7_conservation_laws(gate_checks):
    report(by_criterion(gate_checks, 7))


def test_criterion_8_cylinder_functions():
    report(verify.check_specfun())


def test_criterion_9_scale_invariance(config):
    report(verify.check_scaling(config))
