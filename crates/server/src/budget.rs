//! Wire → engine option translation: evaluation strategy knobs for
//! `/eval`, and step/deadline budgets for `/minimize` (the existing
//! `Partial` semantics of `prov-core::minimize` — a budget-exhausted
//! request returns a *sound* partial result plus a resume cursor, it
//! never returns a wrong one).

use std::time::Duration;

use prov_core::minimize::{MinimizeOptions, Strategy};
use prov_engine::{EvalOptions, MAX_THREADS};

use crate::json::Json;

/// Reads `/eval` strategy fields from the request body: `threads` (1 ..=
/// [`MAX_THREADS`]) and `chunk_rows` (frontier chunk size for the batched
/// pipeline; 0 disables chunking).
/// Unknown fields are ignored so clients can round-trip stats blobs.
pub fn eval_options(body: &Json) -> Result<EvalOptions, String> {
    let mut options = EvalOptions::default();
    if let Some(threads) = body.get("threads") {
        let n = threads
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or("\"threads\" must be a positive integer")?;
        if n > MAX_THREADS as u64 {
            return Err(format!("\"threads\" must be at most {MAX_THREADS}"));
        }
        options = options.with_parallelism(n as usize);
    }
    if let Some(rows) = body.get("chunk_rows") {
        let n = rows.as_u64().ok_or("\"chunk_rows\" must be an integer")?;
        options = if n == 0 {
            options.unchunked()
        } else {
            options.with_chunk_rows(n as usize)
        };
    }
    Ok(options)
}

/// Reads `/minimize` engine fields from the request body: `strategy`
/// (`"minprov"` default, `"auto"`, `"standard"`, `"dedup"`),
/// `budget_steps`, `budget_ms`. Unknown fields are ignored.
pub fn minimize_options(body: &Json) -> Result<MinimizeOptions, String> {
    let mut options = MinimizeOptions::default();
    if let Some(strategy) = body.get("strategy") {
        options.strategy = match strategy.as_str().ok_or("\"strategy\" must be a string")? {
            "minprov" => Strategy::MinProv,
            "auto" => Strategy::Auto,
            "standard" => Strategy::Standard,
            "dedup" => Strategy::CompleteDedup,
            other => {
                return Err(format!(
                    "unknown strategy {other:?} (minprov|auto|standard|dedup)"
                ))
            }
        };
    }
    if let Some(steps) = body.get("budget_steps") {
        options.budget.max_steps = Some(
            steps
                .as_u64()
                .ok_or("\"budget_steps\" must be an integer")?,
        );
    }
    if let Some(ms) = body.get("budget_ms") {
        options.budget.max_duration = Some(Duration::from_millis(
            ms.as_u64().ok_or("\"budget_ms\" must be an integer")?,
        ));
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Json {
        Json::parse(text).expect("test body parses")
    }

    #[test]
    fn eval_defaults_and_overrides() {
        let defaults = eval_options(&obj("{}")).expect("defaults");
        assert_eq!(defaults, EvalOptions::default());
        let opts = eval_options(&obj(r#"{"threads":4}"#)).expect("parses");
        assert_eq!(opts, EvalOptions::default().with_parallelism(4));
        assert!(eval_options(&obj(r#"{"threads":0}"#)).is_err());
        assert!(eval_options(&obj(r#"{"threads":64}"#)).is_ok());
        assert!(eval_options(&obj(r#"{"threads":65}"#)).is_err());
        // `mode` selected an evaluator and `planner` a join planner, and
        // neither choice exists any more; like any unknown field they are
        // ignored, whatever their value.
        for body in [
            r#"{"mode":"tuple"}"#,
            r#"{"planner":"syntactic"}"#,
            r#"{"planner":"written"}"#,
            r#"{"planner":7}"#,
        ] {
            assert_eq!(
                eval_options(&obj(body)).expect("parses"),
                EvalOptions::default(),
                "{body}"
            );
        }
    }

    #[test]
    fn chunk_rows_translates_and_zero_disables() {
        let opts = eval_options(&obj(r#"{"chunk_rows":7}"#)).expect("parses");
        assert_eq!(opts, EvalOptions::default().with_chunk_rows(7));
        let unbounded = eval_options(&obj(r#"{"chunk_rows":0}"#)).expect("parses");
        assert_eq!(unbounded, EvalOptions::default().unchunked());
        assert!(eval_options(&obj(r#"{"chunk_rows":"lots"}"#)).is_err());
    }

    #[test]
    fn minimize_budgets_translate() {
        let opts = minimize_options(&obj(
            r#"{"strategy":"auto","budget_steps":64,"budget_ms":250}"#,
        ))
        .expect("parses");
        assert_eq!(opts.strategy, Strategy::Auto);
        assert_eq!(opts.budget.max_steps, Some(64));
        assert_eq!(opts.budget.max_duration, Some(Duration::from_millis(250)));
        assert!(minimize_options(&obj(r#"{"strategy":"fast"}"#)).is_err());
        assert!(minimize_options(&obj(r#"{"budget_steps":"lots"}"#)).is_err());
    }
}
