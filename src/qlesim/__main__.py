"""``python -m qlesim``: the same command-line front end as the ``qlesim`` script."""
if __name__ == "__main__":
    from .cli import main
    raise SystemExit(main())
