"""The pin-diff report (see pin_diff.py) on the committed tree."""

import pin_diff


def test_reports_no_drawing_change_on_a_clean_tree(catalog):
    assert pin_diff.drawing_report(catalog) == [
        "drawings: 0 of 460 cases changed (plain 0 of 200, noisy 0 of 200, quarter 0 of 20, "
        "tilted 0 of 20, grid 0 of 20)"
    ]


def test_names_changed_new_and_gone_files(tmp_path):
    new, old = tmp_path / "new", tmp_path / "old"
    for directory in (new, old):
        (directory / "sub").mkdir(parents=True)
        (directory / "same.txt").write_text("a")
    (new / "sub" / "moved.svg").write_text("b")
    (old / "sub" / "moved.svg").write_text("c")
    (new / "added.svg").write_text("d")
    (old / "removed.svg").write_text("e")
    assert pin_diff._changed_files(new, old) == [
        "added.svg (new)", "removed.svg (gone)", "sub/moved.svg"
    ]
    assert pin_diff._changed_files(new, old, "*.svg") == ["added.svg (new)", "removed.svg (gone)"]
