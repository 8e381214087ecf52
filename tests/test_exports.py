import doublepell


def test_every_exported_name_resolves_once():
    names = doublepell.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(doublepell, name)]
    assert missing == []


def test_deleted_names_stay_gone():
    for name in ("cross_check_sunit", "pell_compose", "exceptional_eps_candidates"):
        assert name not in doublepell.__all__
        assert not hasattr(doublepell, name)
    assert not hasattr(doublepell.MultiQuad, "conjugate_under")
    assert not hasattr(doublepell.classify, "exceptional_eps_candidates")
    for name in ("_s_unit_exponents", "_square_scan"):
        assert not hasattr(doublepell.search, name)


def test_factoring_limit_is_a_domain_error():
    assert "FactoringLimit" in doublepell.__all__
    assert issubclass(doublepell.FactoringLimit, doublepell.DomainError)
