//! Minimal command-line flag extraction.
//!
//! The binary's flags (`--metrics`, `--json`, `--port N`, `--bind ADDR`,
//! `--interval-ms MS`, `--iterations K`) may appear anywhere on the
//! command line; each helper removes what it consumed from the argument
//! vector, so positional arguments can be read by index afterwards and a
//! `--` argument still there is a flag nobody knows. Errors are returned
//! as user-facing strings — the binary prints them and exits 2.

use std::str::FromStr;

/// Removes every occurrence of the boolean flag `name`; true if at least
/// one was present.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Removes `name VALUE` from the arguments and returns the value, or
/// `None` when the flag is absent. Errors when the flag is the last
/// argument (no value to take).
pub fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{name} requires a value"));
    }
    let value = args[i + 1].clone();
    args.drain(i..=i + 1);
    Ok(Some(value))
}

/// Like [`take_value`] but parses the value, validating with `check`.
/// `expect` names the accepted form for the error message (e.g.
/// `"a positive integer"`).
pub fn take_parsed<T: FromStr>(
    args: &mut Vec<String>,
    name: &str,
    expect: &str,
    check: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = take_value(args, name)? else {
        return Ok(None);
    };
    match raw.parse::<T>() {
        Ok(v) if check(&v) => Ok(Some(v)),
        _ => Err(format!("{name} expects {expect}, got '{raw}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_removed_wherever_it_appears() {
        for pos in 0..3 {
            let mut args = argv(&["a", "b"]);
            args.insert(pos, "--json".into());
            assert!(take_flag(&mut args, "--json"));
            assert_eq!(args, argv(&["a", "b"]), "insert position {pos}");
        }
        let mut args = argv(&["a", "b"]);
        assert!(!take_flag(&mut args, "--json"));
        assert_eq!(args, argv(&["a", "b"]));
    }

    #[test]
    fn flag_repeated_occurrences_all_removed() {
        let mut args = argv(&["--json", "a", "--json"]);
        assert!(take_flag(&mut args, "--json"));
        assert_eq!(args, argv(&["a"]));
    }

    #[test]
    fn value_taken_with_its_flag() {
        for pos in [0, 1, 2] {
            let mut args = argv(&["a", "b"]);
            args.insert(pos, "--bind".into());
            args.insert(pos + 1, "0.0.0.0".into());
            assert_eq!(
                take_value(&mut args, "--bind").unwrap().as_deref(),
                Some("0.0.0.0"),
                "insert position {pos}"
            );
            assert_eq!(args, argv(&["a", "b"]), "insert position {pos}");
        }
    }

    #[test]
    fn value_absent_is_none() {
        let mut args = argv(&["a", "b"]);
        assert_eq!(take_value(&mut args, "--bind").unwrap(), None);
        assert_eq!(args, argv(&["a", "b"]));
    }

    #[test]
    fn value_missing_is_an_error() {
        let mut args = argv(&["a", "--bind"]);
        let err = take_value(&mut args, "--bind").unwrap_err();
        assert!(err.contains("--bind requires a value"), "{err}");
    }

    #[test]
    fn parsed_value_validated() {
        let mut args = argv(&["--iterations", "4", "x"]);
        let n: Option<usize> =
            take_parsed(&mut args, "--iterations", "a positive integer", |&n| n >= 1).unwrap();
        assert_eq!(n, Some(4));
        assert_eq!(args, argv(&["x"]));
    }

    #[test]
    fn parsed_rejects_garbage_and_out_of_range() {
        for bad in ["zero", "-3", "0"] {
            let mut args = argv(&["--iterations", bad]);
            let err =
                take_parsed::<usize>(&mut args, "--iterations", "a positive integer", |&n| n >= 1)
                    .unwrap_err();
            assert!(err.contains("a positive integer"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }
}
