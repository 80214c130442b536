"""The knob census as a ratchet (tools/knob_census.py ``--max``): CI fails
when a ``*Config`` field is added past the total, or when a field no site
sets is not one of the allowlisted nested config objects."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "knob_census.py"
spec = importlib.util.spec_from_file_location("knob_census", TOOL)
knob_census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(knob_census)

CONFIGS = '''\
from dataclasses import dataclass, field


@dataclass
class InstanceConfig:
    cache_capacity: int = 100
{extra}

@dataclass
class ClusterConfig:
    seed: int = 0
    instance: InstanceConfig = field(default_factory=InstanceConfig)
'''
CALLER = '''\
config = ClusterConfig(seed=3)
config.instance.cache_capacity = 8
'''


def tree(tmp_path, extra=""):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "configs.py").write_text(CONFIGS.format(extra=extra))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_it.py").write_text(CALLER)
    return tmp_path


def test_max_passes_at_the_total_and_fails_below_it(tmp_path, capsys):
    root = tree(tmp_path)
    assert knob_census.main(["--max", "3"], root=root) == 0
    assert "total: 3 fields, 1 set nowhere" in capsys.readouterr().out
    assert knob_census.main(["--max", "2"], root=root) == 1
    assert "3 fields, the ratchet allows 2" in capsys.readouterr().out
    # Without --max it only prints.
    assert knob_census.main([], root=root) == 0


def test_a_field_no_site_sets_fails_unless_it_is_a_nested_config(
    tmp_path, capsys
):
    root = tree(tmp_path, extra="    spare: float = 1.0\n")
    assert knob_census.main(["--max", "4"], root=root) == 1
    out = capsys.readouterr().out
    assert "InstanceConfig.spare is set by no site" in out
    # ClusterConfig.instance is set by no site either, and is allowed.
    assert "ClusterConfig.instance is set" not in out

