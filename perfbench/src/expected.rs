//! The hand-written expected-verdict file (`perfbench/expected.txt`).
//!
//! One line per `(workload, model)`:
//!
//! ```text
//! workload | model | confirmed real races | exception names
//! table1   | cache4j | 3 | InterruptedException
//! table1   | sor     | 0 | -
//! ```
//!
//! The race count is exact (`3`) or an inclusive range (`8..18`) for a
//! model whose confirmed count legitimately depends on the seed. Exception
//! names are comma-separated; `-` is the empty set. Blank lines and lines
//! starting with `#` are ignored.

use std::collections::BTreeSet;
use std::fmt;

/// One model's expected verdict under one workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expectation {
    /// Workload name (`table1`, `collections`, `campaign`).
    pub workload: String,
    /// Model name as `workloads` spells it (`Vector 1.1`, `moldyn`, …).
    pub model: String,
    /// Fewest pairs Phase 2 may confirm real.
    pub real_min: usize,
    /// Most pairs Phase 2 may confirm real: every confirmation beyond the
    /// model's truly racy pairs would be a false warning.
    pub real_max: usize,
    /// Distinct exception names that kill a thread in some trial.
    pub exceptions: BTreeSet<String>,
}

/// A malformed line, with its 1-based number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expected-verdict file line {}: {}",
            self.line, self.message
        )
    }
}

/// Parses the whole file. Rejects a wrong field count, a non-numeric race
/// count, an empty name, and a repeated `(workload, model)`.
pub fn parse(text: &str) -> Result<Vec<Expectation>, ParseError> {
    let mut expectations: Vec<Expectation> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let error = |message: String| ParseError {
            line: index + 1,
            message,
        };
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        let [workload, model, real, exceptions] = fields[..] else {
            return Err(error(format!(
                "want 4 `|`-separated fields, got {}",
                fields.len()
            )));
        };
        if workload.is_empty() || model.is_empty() {
            return Err(error("empty workload or model name".to_owned()));
        }
        let count = |text: &str| {
            text.parse::<usize>()
                .map_err(|_| error(format!("race count `{text}` is not a whole number")))
        };
        let (real_min, real_max) = match real.split_once("..") {
            Some((low, high)) => (count(low)?, count(high)?),
            None => (count(real)?, count(real)?),
        };
        if real_min > real_max {
            return Err(error(format!("empty race-count range `{real}`")));
        }
        let exceptions = match exceptions {
            "-" => BTreeSet::new(),
            names => names
                .split(',')
                .map(str::trim)
                .map(|name| {
                    if name.is_empty() {
                        Err(error("empty exception name".to_owned()))
                    } else {
                        Ok(name.to_owned())
                    }
                })
                .collect::<Result<_, _>>()?,
        };
        if expectations
            .iter()
            .any(|seen| seen.workload == workload && seen.model == model)
        {
            return Err(error(format!("duplicate entry for {workload} / {model}")));
        }
        expectations.push(Expectation {
            workload: workload.to_owned(),
            model: model.to_owned(),
            real_min,
            real_max,
            exceptions,
        });
    }
    Ok(expectations)
}

impl Expectation {
    /// Does a confirmed count of `real` and the exception names `names`
    /// match this expectation?
    pub fn admits(&self, real: usize, names: &BTreeSet<String>) -> bool {
        (self.real_min..=self.real_max).contains(&real) && self.exceptions == *names
    }

    /// The race count as written in the file.
    pub fn count_text(&self) -> String {
        if self.real_min == self.real_max {
            self.real_min.to_string()
        } else {
            format!("{}..{}", self.real_min, self.real_max)
        }
    }
}

/// The expectation for `model` under `workload`, if the file has one.
pub fn lookup<'e>(
    expectations: &'e [Expectation],
    workload: &str,
    model: &str,
) -> Option<&'e Expectation> {
    expectations
        .iter()
        .find(|entry| entry.workload == workload && entry.model == model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counts_and_exception_sets() {
        let text = "\
# comment
table1 | cache4j | 3 | InterruptedException

collections | LinkedList | 4 | NoSuchElementException, ConcurrentModificationException
table1 | sor | 0 | -
campaign | ArrayList | 8..18 | -
";
        let parsed = parse(text).expect("well-formed");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].workload, "table1");
        assert_eq!(parsed[0].model, "cache4j");
        assert_eq!((parsed[0].real_min, parsed[0].real_max), (3, 3));
        assert_eq!(parsed[0].count_text(), "3");
        assert_eq!((parsed[3].real_min, parsed[3].real_max), (8, 18));
        assert_eq!(parsed[3].count_text(), "8..18");
        assert_eq!(
            parsed[1].exceptions,
            BTreeSet::from([
                "ConcurrentModificationException".to_owned(),
                "NoSuchElementException".to_owned()
            ])
        );
        assert!(parsed[2].exceptions.is_empty());
        assert_eq!(
            lookup(&parsed, "table1", "sor").map(|e| e.real_max),
            Some(0)
        );
        assert!(lookup(&parsed, "campaign", "sor").is_none());
    }

    #[test]
    fn admits_counts_inside_the_range_with_the_exact_name_set() {
        let parsed = parse("campaign | ArrayList | 8..18 | NoSuchElementException").expect("ok");
        let names = BTreeSet::from(["NoSuchElementException".to_owned()]);
        assert!(parsed[0].admits(8, &names));
        assert!(parsed[0].admits(18, &names));
        assert!(!parsed[0].admits(7, &names));
        assert!(!parsed[0].admits(19, &names));
        assert!(!parsed[0].admits(12, &BTreeSet::new()));
        let mut more = names.clone();
        more.insert("ConcurrentModificationException".to_owned());
        assert!(!parsed[0].admits(12, &more));
    }

    #[test]
    fn model_names_may_contain_spaces() {
        let parsed = parse("table1 | Vector 1.1 | 9 | -").expect("well-formed");
        assert_eq!(parsed[0].model, "Vector 1.1");
    }

    #[test]
    fn rejects_malformed_lines_with_their_number() {
        let cases = [
            ("table1 | sor | 0", "4 `|`-separated fields"),
            ("table1 | sor | many | -", "not a whole number"),
            ("table1 | sor | -1 | -", "not a whole number"),
            ("table1 | sor | 3..x | -", "not a whole number"),
            ("table1 | sor | 5..3 | -", "empty race-count range"),
            (" | sor | 0 | -", "empty workload"),
            ("table1 | hedc | 1 | A,,B", "empty exception name"),
        ];
        for (line, message) in cases {
            let error = parse(&format!("# header\n{line}\n")).expect_err(line);
            assert_eq!(error.line, 2, "{line}");
            assert!(error.message.contains(message), "{line}: {error}");
        }
    }

    #[test]
    fn rejects_duplicate_entries() {
        let error = parse("table1 | sor | 0 | -\ntable1 | sor | 0 | -\n").expect_err("dup");
        assert_eq!(error.line, 2);
        assert!(error.message.contains("duplicate"));
    }
}
