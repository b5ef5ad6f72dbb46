//! The wire-protocol grammar: handshake lines, in-stream commands, and
//! reply rendering.
//!
//! Everything is newline-delimited UTF-8 text (`\r\n` tolerated), so the
//! protocol is usable interactively from `netcat`. Tuple payload lines use
//! the [`datacell::text`] framing; this module covers only the thin
//! control layer around them:
//!
//! ```text
//! server: OK datacell 1                          ← greeting on accept
//! client: STREAM <basket>                        ← or SUBSCRIBE/PING/QUIT
//! server: OK STREAM <basket> <col:type,...>
//! client: <tuple line> ...                       ← datacell::text rows
//! ```
//!
//! Keywords are case-insensitive; basket and query names are
//! case-sensitive. Replies are a single line starting `OK ` or `ERR `;
//! `ERR` is followed by a one-word category (`proto`, `auth`, `decode`,
//! `unknown-basket`, `unknown-query`, `sql`, `internal`) and a
//! human-readable message.
//!
//! When the session was built with an
//! [`auth_token`](datacell::DataCellBuilder::auth_token), the connection
//! must authenticate first: `HELLO <token>` → `OK HELLO`. `PING` and
//! `QUIT` stay available unauthenticated; anything else gets `ERR auth`.
//!
//! `EXEC <sql>` runs one introspection/DDL statement in the handshake
//! state and leaves the connection there, so a client can interleave
//! `SHOW QUERIES` / `SHOW METRICS` / `EXPLAIN ANALYZE` probes with pings
//! before (or instead of) committing the socket to `STREAM`/`SUBSCRIBE`.

pub use datacell::text::StreamCommand;
use datacell::{text, SubscriptionMode};

/// Wire-protocol version announced in the greeting (`OK datacell 1`).
pub const PROTOCOL_VERSION: u32 = 1;

/// The server's greeting line, sent once per connection on accept.
pub const GREETING: &str = "OK datacell 1";

/// A parsed connection-opening line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    /// `STREAM <basket>` — the client will push tuple lines into the
    /// named basket.
    Stream {
        /// Target basket name.
        basket: String,
    },
    /// `SUBSCRIBE <query> [MODE shared|broadcast]` — the client will
    /// receive the named continuous query's results as tuple lines.
    Subscribe {
        /// Continuous query name.
        query: String,
        /// Fan-out mode (default broadcast).
        mode: SubscriptionMode,
    },
    /// `PING` — liveness probe, answered with `OK PONG`; the connection
    /// stays in the handshake state.
    Ping,
    /// `QUIT` — close the connection cleanly (`OK BYE`).
    Quit,
    /// `HELLO <token>` — authenticate against the session's configured
    /// token; answered `OK HELLO`, stays in the handshake state.
    Hello {
        /// The presented credential, compared verbatim.
        token: String,
    },
    /// `EXEC <sql>` — run one SQL statement (introspection, DDL, one-time
    /// query) and return its result inline; stays in the handshake state.
    Exec {
        /// Everything after the verb, passed to the SQL front end as-is.
        sql: String,
    },
}

/// Parse a handshake line; `Err` carries the message for the `ERR proto`
/// reply.
pub fn parse_handshake(line: &str) -> Result<Handshake, String> {
    let mut words = line.split_whitespace();
    let Some(verb) = words.next() else {
        return Err("empty line; expected STREAM, SUBSCRIBE, PING or QUIT".into());
    };
    match verb.to_ascii_uppercase().as_str() {
        "STREAM" => {
            let Some(basket) = words.next() else {
                return Err("STREAM needs a basket name: STREAM <basket>".into());
            };
            if words.next().is_some() {
                return Err("STREAM takes exactly one argument: STREAM <basket>".into());
            }
            Ok(Handshake::Stream {
                basket: basket.to_string(),
            })
        }
        "SUBSCRIBE" => {
            let Some(query) = words.next() else {
                return Err(
                    "SUBSCRIBE needs a query name: SUBSCRIBE <query> [MODE shared|broadcast]"
                        .into(),
                );
            };
            let mode = match (words.next(), words.next(), words.next()) {
                (None, _, _) => SubscriptionMode::Broadcast,
                (Some(kw), Some(m), None) if kw.eq_ignore_ascii_case("MODE") => {
                    if m.eq_ignore_ascii_case("shared") {
                        SubscriptionMode::Shared
                    } else if m.eq_ignore_ascii_case("broadcast") {
                        SubscriptionMode::Broadcast
                    } else {
                        return Err(format!(
                            "unknown mode {m}; use MODE shared or MODE broadcast"
                        ));
                    }
                }
                _ => {
                    return Err(
                        "SUBSCRIBE syntax: SUBSCRIBE <query> [MODE shared|broadcast]".into(),
                    )
                }
            };
            Ok(Handshake::Subscribe {
                query: query.to_string(),
                mode,
            })
        }
        "PING" => Ok(Handshake::Ping),
        "QUIT" => Ok(Handshake::Quit),
        "HELLO" => {
            let Some(token) = words.next() else {
                return Err("HELLO needs a token: HELLO <token>".into());
            };
            if words.next().is_some() {
                return Err("HELLO takes exactly one argument: HELLO <token>".into());
            }
            Ok(Handshake::Hello {
                token: token.to_string(),
            })
        }
        "EXEC" => {
            // The SQL is the rest of the line verbatim (it contains
            // spaces), not a whitespace-split word.
            let sql = line
                .trim_start()
                .get(verb.len()..)
                .unwrap_or("")
                .trim()
                .to_string();
            if sql.is_empty() {
                return Err("EXEC needs a statement: EXEC <sql>".into());
            }
            Ok(Handshake::Exec { sql })
        }
        other => Err(format!(
            "unknown verb {other}; expected STREAM, SUBSCRIBE, EXEC, HELLO, PING or QUIT"
        )),
    }
}

/// Recognize an in-stream command (recognized between tuple lines of a
/// `STREAM` session): a bare [`StreamCommand`] word, case-insensitive,
/// surrounding whitespace ignored.
pub fn parse_stream_command(line: &str) -> Option<StreamCommand> {
    text::stream_command(line.trim().as_bytes())
}

/// Render an `ERR <category> <message>` reply line; newlines in the
/// message are flattened so the reply stays one frame.
pub fn err_line(category: &str, message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {category} {flat}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_verbs_parse_case_insensitively() {
        assert_eq!(
            parse_handshake("stream trades"),
            Ok(Handshake::Stream {
                basket: "trades".into()
            })
        );
        assert_eq!(
            parse_handshake("SUBSCRIBE q MODE shared"),
            Ok(Handshake::Subscribe {
                query: "q".into(),
                mode: SubscriptionMode::Shared
            })
        );
        assert_eq!(
            parse_handshake("Subscribe q"),
            Ok(Handshake::Subscribe {
                query: "q".into(),
                mode: SubscriptionMode::Broadcast
            })
        );
        assert_eq!(parse_handshake("ping"), Ok(Handshake::Ping));
        assert_eq!(parse_handshake("QUIT"), Ok(Handshake::Quit));
        // Names stay case-sensitive.
        assert_eq!(
            parse_handshake("STREAM Trades"),
            Ok(Handshake::Stream {
                basket: "Trades".into()
            })
        );
    }

    #[test]
    fn hello_and_exec_parse() {
        assert_eq!(
            parse_handshake("hello s3cret"),
            Ok(Handshake::Hello {
                token: "s3cret".into()
            })
        );
        assert_eq!(
            parse_handshake("EXEC show queries"),
            Ok(Handshake::Exec {
                sql: "show queries".into()
            })
        );
        // EXEC keeps the whole rest of the line, internal spaces included.
        assert_eq!(
            parse_handshake("exec  explain analyze select * from t "),
            Ok(Handshake::Exec {
                sql: "explain analyze select * from t".into()
            })
        );
        assert!(parse_handshake("HELLO").unwrap_err().contains("token"));
        assert!(parse_handshake("HELLO a b").unwrap_err().contains("one"));
        assert!(parse_handshake("EXEC").unwrap_err().contains("statement"));
    }

    #[test]
    fn handshake_errors_name_the_problem() {
        assert!(parse_handshake("").unwrap_err().contains("empty"));
        assert!(parse_handshake("STREAM").unwrap_err().contains("basket"));
        assert!(parse_handshake("STREAM a b").unwrap_err().contains("one"));
        assert!(parse_handshake("SUBSCRIBE").unwrap_err().contains("query"));
        assert!(parse_handshake("SUBSCRIBE q MODE nope")
            .unwrap_err()
            .contains("unknown mode"));
        assert!(parse_handshake("SUBSCRIBE q EXTRA x")
            .unwrap_err()
            .contains("syntax"));
        assert!(parse_handshake("FETCH q").unwrap_err().contains("FETCH"));
    }

    #[test]
    fn stream_commands_are_bare_words_only() {
        assert_eq!(parse_stream_command(" sync "), Some(StreamCommand::Sync));
        assert_eq!(parse_stream_command("QUIT"), Some(StreamCommand::Quit));
        assert_eq!(parse_stream_command("\"SYNC\""), None, "quoted is data");
        assert_eq!(parse_stream_command("SYNC,1"), None, "tuples stay tuples");
        assert_eq!(parse_stream_command("1,2"), None);
    }

    #[test]
    fn err_lines_stay_single_frame() {
        assert_eq!(err_line("decode", "bad\nfield"), "ERR decode bad field");
    }
}
