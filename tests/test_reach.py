"""The reach probe's matching step (``tools/reach.py``): given the
first lines of the code objects that ran, which function definitions
of a module were never entered."""

import importlib.util
import sys
from pathlib import Path


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load("reach",
              Path(__file__).resolve().parent.parent / "tools" / "reach.py")

SOURCE = '''\
import functools


def called():
    return 1


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated_called(x):
    return x


@functools.lru_cache(maxsize=None)
def decorated_uncalled(x):
    return x


class Box:
    def method_called(self):
        return 3

    def method_uncalled(self):
        def inner():
            return 4

        return inner()


def outer_uncalled():
    def nested():
        return 5

    class Local:
        def deep(self):
            return 6

    return nested()


def run():
    def never():
        return 7

    called()
    decorated_called(1)
    return Box().method_called()
'''


def test_unreached_matches_real_code_objects(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    module = _load("synthetic", path)
    entered = set()

    def probe(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == str(path):
            entered.add(frame.f_code.co_firstlineno)

    sys.setprofile(probe)
    try:
        module.run()
    finally:
        sys.setprofile(None)

    funcs = {f.name: f for f in reach.functions(SOURCE)}
    # a decorated function's code starts at its decorator, so matching
    # on the def line alone would call it unreached
    deco = funcs["decorated_called"]
    assert deco.first == deco.line - 1
    assert deco.first in entered and deco.line not in entered

    missed = reach.unreached(SOURCE, entered)
    # nested, Local.deep and method_uncalled.inner sit inside a missed
    # function and are not counted again; run.never is inside an
    # entered one, so it is reported on its own
    assert [(f.name, f.lines) for f in missed] == [
        ("uncalled", 2),
        ("decorated_uncalled", 3),
        ("Box.method_uncalled", 5),
        ("outer_uncalled", 9),
        ("run.never", 2),
    ]
    assert set(funcs) >= {"outer_uncalled.nested",
                          "outer_uncalled.Local.deep",
                          "Box.method_uncalled.inner"}
