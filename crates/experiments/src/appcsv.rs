//! CSV loader for application descriptions, used by the `cosched` CLI.
//!
//! Format (header optional, `#` comments allowed):
//!
//! ```csv
//! name,work,seq_fraction,access_freq,miss_rate_40mb
//! CG,5.70e10,0.05,0.535,6.59e-4
//! BT,2.10e11,0.05,0.829,7.31e-3
//! ```

use coschedule::model::Application;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// Line where the failure occurred.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Parses application rows from CSV text.
///
/// Empty lines and `#` comments are skipped. The first remaining line is
/// skipped as a header iff none of its four numeric columns is a number;
/// every later line must be a valid row.
pub fn parse_applications(text: &str) -> Result<Vec<Application>, CsvError> {
    let mut apps = Vec::new();
    let mut first = true;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 5 {
            return Err(CsvError {
                line: line_no,
                message: format!(
                    "expected 5 fields (name,work,seq,freq,miss40), got {}",
                    fields.len()
                ),
            });
        }
        if std::mem::take(&mut first) && fields[1..].iter().all(|f| f.parse::<f64>().is_err()) {
            continue;
        }
        let num = |i: usize, what: &str| -> Result<f64, CsvError> {
            fields[i].parse::<f64>().map_err(|_| CsvError {
                line: line_no,
                message: format!("{what} '{}' is not a number", fields[i]),
            })
        };
        let app = Application::new(
            fields[0],
            num(1, "work")?,
            num(2, "sequential fraction")?,
            num(3, "access frequency")?,
            num(4, "miss rate")?,
        );
        app.validate(apps.len()).map_err(|e| CsvError {
            line: line_no,
            message: e.to_string(),
        })?;
        apps.push(app);
    }
    if apps.is_empty() {
        return Err(CsvError {
            line: 0,
            message: "no application rows found".into(),
        });
    }
    Ok(apps)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
name,work,seq_fraction,access_freq,miss_rate_40mb
# the two largest NPB codes
CG,5.70e10,0.05,0.535,6.59e-4
BT,2.10e11,0.05,0.829,7.31e-3
";

    #[test]
    fn parses_with_header_and_comments() {
        let apps = parse_applications(SAMPLE).unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].name, "CG");
        assert_eq!(apps[0].work, 5.70e10);
        assert_eq!(apps[1].access_freq, 0.829);
    }

    #[test]
    fn parses_without_header() {
        let apps = parse_applications("X,1e9,0.0,0.5,1e-3\n").unwrap();
        assert_eq!(apps.len(), 1);
        assert!(apps[0].is_perfectly_parallel());
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = parse_applications("A,1e9,0.0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("5 fields"));
    }

    #[test]
    fn rejects_non_numeric_values() {
        let err = parse_applications("A,1e9,zero,0.5,1e-3\n").unwrap_err();
        assert!(err.message.contains("not a number"), "{err}");
    }

    #[test]
    fn rejects_domain_violations_with_line_numbers() {
        let err = parse_applications("A,1e9,0.0,0.5,1e-3\nB,1e9,1.5,0.5,1e-3\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("sequential fraction"));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_applications("# nothing\n").is_err());
        assert!(parse_applications("").is_err());
    }

    #[test]
    fn malformed_first_row_is_an_error_not_a_header() {
        let row1 = "CG,5.7e1O,0.05,0.535,6.59e-4\n";
        let row2 = "BT,2.10e11,0.05,0.829,7.31e-3\n";
        let err = parse_applications(&format!("{row1}{row2}")).unwrap_err();
        assert_eq!(err.to_string(), "line 1: work '5.7e1O' is not a number");
        let header = "name,work,seq_fraction,access_freq,miss_rate_40mb\n";
        let err = parse_applications(&format!("{header}{row1}{row2}")).unwrap_err();
        assert_eq!(err.to_string(), "line 2: work '5.7e1O' is not a number");
    }

    #[test]
    fn error_display_mentions_line() {
        let err = parse_applications("bad\n").unwrap_err();
        assert!(err.to_string().starts_with("line 1:"));
    }
}
