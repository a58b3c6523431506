"""The verdict fold and per-check isolation."""

from hypothesis import given
from hypothesis import strategies as st

from utmaudit.results import CheckResult, CheckStatus, Outcome, fold, run_checks

outcomes = st.lists(
    st.builds(
        Outcome,
        st.sampled_from(
            [None, CheckStatus.PASS, CheckStatus.FAIL, CheckStatus.NOT_ASSESSABLE]
        ),
        st.text(max_size=8),
        st.one_of(st.none(), st.sampled_from(["gw", "logs", "auth"])),
    ),
    max_size=8,
)


@given(outcomes, st.one_of(st.none(), st.just("summary")))
def test_fold_precedence_and_evidence(items, pass_line):
    result = fold("JWT-06", items, pass_line)
    statuses = [o.status for o in items]
    lines = [o.line for o in items]
    assert result.check_id == "JWT-06"
    if CheckStatus.FAIL in statuses:
        assert result.status is CheckStatus.FAIL
        first = next(o for o in items if o.status is CheckStatus.FAIL)
        assert result.component_id == first.component
        assert result.evidence == lines
    elif CheckStatus.NOT_ASSESSABLE in statuses or CheckStatus.PASS not in statuses:
        assert result.status is CheckStatus.NOT_ASSESSABLE
        assert result.component_id is None
        assert result.evidence == lines
    else:
        assert result.status is CheckStatus.PASS
        assert result.component_id is None
        assert result.evidence == lines + ([pass_line] if pass_line else [])


def test_run_checks_isolates_each_check_and_keeps_order():
    def boom():
        raise KeyError("n")

    results = run_checks(
        {"LOG-01", "LOG-03", "LOG-04"},
        [
            ("LOG-01", lambda: CheckResult("LOG-01", CheckStatus.PASS, ["ok"])),
            ("LOG-03", boom),
            ("LOG-02", lambda: CheckResult("LOG-02", CheckStatus.PASS, ["unwanted"])),
            ("LOG-04", lambda: CheckResult("LOG-04", CheckStatus.SKIPPED, ["n/a"])),
        ],
    )
    assert [r.check_id for r in results] == ["LOG-01", "LOG-03", "LOG-04"]
    assert results[0].status is CheckStatus.PASS
    assert results[1].status is CheckStatus.NOT_ASSESSABLE
    assert results[1].evidence == ["probe aborted: KeyError: 'n'"]
    assert results[2].duration_ms == 0
