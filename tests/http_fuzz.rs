//! Fragmentation fuzz of the one HTTP request parser.
//!
//! Every connection — the server's and the cluster router's — feeds
//! `RequestParser` whatever fragment each socket read returns. The
//! serving contract is that fragmentation is *invisible*: for any byte
//! stream and any way of slicing it, the parser must yield byte-identical
//! requests and the identical typed error it produces when the whole
//! stream arrives in one feed. This suite proves it three ways:
//!
//! 1. a corpus of valid, malformed, pipelined, and oversized streams,
//!    each replayed **split at every byte boundary**;
//! 2. seeded proptest multi-splits (0–8 cut points) over the corpus;
//! 3. seeded proptest byte soup, sliced randomly.
//!
//! EOF rule: when a stream ends short, the parser's `eof_error()` is the
//! terminal result — `ConnectionClosed` (head, or a clean end between
//! requests) or `Io(UnexpectedEof)` (body).

use cqp_server::http::{HttpError, Request, RequestParser, MAX_HEAD_BYTES};
use proptest::prelude::*;

/// Ground truth: the whole stream in one feed, every pipelined request
/// collected up to the terminal error.
fn whole_feed(input: &[u8]) -> (Vec<Request>, HttpError) {
    fragmented(input, &[])
}

/// Feeds the stream sliced at `cuts` (positions are clamped, deduped),
/// pumping after every fragment, then applies the EOF rule. Must equal
/// [`whole_feed`] exactly.
fn fragmented(input: &[u8], cuts: &[usize]) -> (Vec<Request>, HttpError) {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c.min(input.len())).collect();
    points.push(0);
    points.push(input.len());
    points.sort_unstable();
    points.dedup();
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    for pair in points.windows(2) {
        parser.feed(&input[pair[0]..pair[1]]);
        loop {
            match parser.try_next() {
                Ok(Some(r)) => requests.push(r),
                Ok(None) => break,
                Err(e) => return (requests, e),
            }
        }
    }
    (requests, parser.eof_error())
}

/// Asserts whole feed == fragmented feed for one slicing.
fn check(input: &[u8], cuts: &[usize]) {
    let want = whole_feed(input);
    let got = fragmented(input, cuts);
    assert_eq!(
        want,
        got,
        "divergence on {:?} cut at {:?}",
        String::from_utf8_lossy(&input[..input.len().min(120)]),
        cuts
    );
}

/// Replays one stream split at every byte boundary (two fragments), plus
/// unsplit and fully atomized (every byte its own fragment).
fn check_every_split(input: &[u8]) {
    check(input, &[]);
    for i in 0..=input.len() {
        check(input, &[i]);
    }
    let atomized: Vec<usize> = (0..input.len()).collect();
    check(input, &atomized);
}

/// Streams that must parse: simple, bodied, pipelined, 1.0, odd spacing.
fn valid_corpus() -> Vec<Vec<u8>> {
    vec![
        b"GET / HTTP/1.1\r\nhost: a\r\n\r\n".to_vec(),
        b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
        // Bare-LF line endings are accepted.
        b"GET /metrics HTTP/1.1\nhost: b\n\n".to_vec(),
        b"POST /personalize HTTP/1.1\r\nhost: c\r\ncontent-length: 4\r\n\r\nab\r\n".to_vec(),
        // Empty body POST (explicit zero).
        b"POST /p HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(),
        // Keep-alive flip and case-insensitive header names.
        b"GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n".to_vec(),
        b"GET /y HTTP/1.0\r\n\r\n".to_vec(),
        // Lowercased method, value whitespace, duplicate headers.
        b"get /z HTTP/1.1\r\nA:  1  \r\na: 2\r\n\r\n".to_vec(),
        // Two pipelined requests back-to-back.
        b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz".to_vec(),
        // Three, with a close in the middle (parsers keep going; the
        // server layer is what honors keep_alive).
        b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\nconnection: close\r\n\r\nGET /3 HTTP/1.1\r\n\r\n"
            .to_vec(),
        // Non-UTF8 header bytes decode lossily, not fatally.
        b"GET /u HTTP/1.1\r\nx-bin: \xff\xfe\r\n\r\n".to_vec(),
        // Body bytes are opaque: CRLFs and garbage inside are data.
        b"POST /o HTTP/1.1\r\ncontent-length: 8\r\n\r\n\r\n\r\nGET ".to_vec(),
    ]
}

/// Streams that must fail with a typed error (or EOF), identically.
fn malformed_corpus() -> Vec<Vec<u8>> {
    vec![
        Vec::new(),
        b"\r\n".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        b"GET / HTTP/2\r\n\r\n".to_vec(),
        b"GET noslash HTTP/1.1\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1 extra\r\n\r\n".to_vec(),
        // Header without a colon.
        b"GET / HTTP/1.1\r\nbroken header\r\n\r\n".to_vec(),
        // A bad header *after* a good one: error order matters.
        b"GET / HTTP/1.1\r\nok: 1\r\nnope\r\nok2: 2\r\n\r\n".to_vec(),
        // Unparsable and overflowing content lengths.
        b"POST /p HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec(),
        b"POST /p HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n".to_vec(),
        b"POST /p HTTP/1.1\r\nhost: x\r\n\r\nno length".to_vec(),
        // Truncations: mid request line, mid header, mid body.
        b"GET / HT".to_vec(),
        b"GET / HTTP/1.1\r\nhost: tr".to_vec(),
        b"POST /p HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec(),
        // A complete request, then a truncated second one.
        b"GET /ok HTTP/1.1\r\n\r\nPOST /t HTTP/1.1\r\ncontent-length: 5\r\n\r\nab".to_vec(),
        // A complete request, then garbage.
        b"GET /ok HTTP/1.1\r\n\r\n\x00\x01\x02\r\n\r\n".to_vec(),
        b"\x16\x03\x01\x02\x00\x01\x00\x01".to_vec(), // a TLS ClientHello prefix
    ]
}

/// Oversized streams probing the head budget, including the mid-line
/// case (no terminator ever arrives). Too big for every-byte splits;
/// exercised with coarse strides and proptest cuts instead.
fn oversized_corpus() -> Vec<Vec<u8>> {
    let mut one_line = b"GET /".to_vec();
    one_line.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 512));
    let mut many_headers = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..900 {
        many_headers.extend_from_slice(format!("x-h{i}: {:064}\r\n", i).as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    // A line that crosses the budget exactly at the boundary region.
    let mut edge = b"GET / HTTP/1.1\r\n".to_vec();
    let pad = MAX_HEAD_BYTES - edge.len() - 4;
    edge.extend_from_slice(format!("x: {}\r\n\r\n", "b".repeat(pad)).as_bytes());
    vec![one_line, many_headers, edge]
}

#[test]
fn corpus_streams_agree_at_every_byte_split() {
    for input in valid_corpus().iter().chain(malformed_corpus().iter()) {
        check_every_split(input);
    }
}

#[test]
fn valid_corpus_actually_parses_and_malformed_actually_fails() {
    // Guards the corpus itself: a typo'd "valid" entry that errors (or a
    // "malformed" one that cleanly EOFs after full requests) would
    // silently weaken the fragmentation check.
    for input in valid_corpus() {
        let (requests, terminal) = whole_feed(&input);
        assert!(
            !requests.is_empty(),
            "{:?}",
            String::from_utf8_lossy(&input)
        );
        assert_eq!(terminal, HttpError::ConnectionClosed);
    }
    for input in malformed_corpus() {
        let (_, terminal) = whole_feed(&input);
        assert!(
            !matches!(terminal, HttpError::ConnectionClosed)
                || whole_feed(&input).0.is_empty()
                || input.ends_with(b"ab")
                || input.ends_with(b"abc"),
            "unexpectedly clean: {:?}",
            String::from_utf8_lossy(&input)
        );
    }
}

#[test]
fn oversized_streams_agree_on_coarse_and_boundary_splits() {
    for input in oversized_corpus() {
        check(&input, &[]);
        // Strided two-fragment splits.
        for i in (0..=input.len()).step_by(997) {
            check(&input, &[i]);
        }
        // Fragment boundaries hugging the budget edge.
        for i in MAX_HEAD_BYTES.saturating_sub(3)..(MAX_HEAD_BYTES + 3).min(input.len()) {
            check(&input, &[i]);
        }
        // Many small fragments.
        let cuts: Vec<usize> = (0..input.len()).step_by(1024).collect();
        check(&input, &cuts);
    }
}

#[test]
fn parser_state_reports_track_the_stream() {
    let mut p = RequestParser::new();
    assert!(!p.mid_request());
    assert_eq!(p.eof_error(), HttpError::ConnectionClosed);
    p.feed(b"GET /");
    assert!(p.mid_request());
    p.feed(b" HTTP/1.1\r\n\r\n");
    let r = p.try_next().unwrap().unwrap();
    assert_eq!(r.method, "GET");
    assert!(!p.mid_request(), "between requests");
    p.feed(b"POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\n");
    assert_eq!(p.try_next().unwrap(), None);
    // Mid-body EOF is the one distinct EOF flavor.
    assert_eq!(
        p.eof_error(),
        HttpError::Io(std::io::ErrorKind::UnexpectedEof)
    );
    p.feed(b"ok");
    let r = p.try_next().unwrap().unwrap();
    assert_eq!(r.body, b"ok");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Multi-splits over the corpora: any stream, sliced anywhere, in up
    /// to 9 fragments.
    #[test]
    fn corpus_streams_agree_under_random_multi_splits(
        which in 0usize..29,
        cuts in proptest::collection::vec(0usize..40_000, 0..8),
    ) {
        let valid = valid_corpus();
        let malformed = malformed_corpus();
        let oversized = oversized_corpus();
        let input = valid
            .get(which)
            .or_else(|| malformed.get(which - valid.len().min(which)))
            .cloned()
            .unwrap_or_else(|| oversized[which % oversized.len()].clone());
        check(&input, &cuts);
    }

    /// Byte soup: arbitrary bytes, arbitrary slicing. Usually an error
    /// stream — the point is that every slicing reports the *same* one.
    #[test]
    fn byte_soup_agrees_under_random_multi_splits(
        words in proptest::collection::vec(0u16..256, 0..1200),
        cuts in proptest::collection::vec(0usize..1200, 0..8),
    ) {
        let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        check(&bytes, &cuts);
    }

    /// Structured soup: fragments of plausible HTTP tokens glued
    /// randomly, which reaches deeper parser states than raw bytes.
    #[test]
    fn token_soup_agrees_under_random_multi_splits(
        picks in proptest::collection::vec(0usize..12, 0..12),
        cuts in proptest::collection::vec(0usize..600, 0..8),
    ) {
        const TOKENS: [&[u8]; 12] = [
            b"GET / HTTP/1.1\r\n",
            b"POST /p HTTP/1.1\r\n",
            b"content-length: 5\r\n",
            b"content-length: x\r\n",
            b"connection: close\r\n",
            b"\r\n",
            b"\n",
            b"hello",
            b": no-name\r\n",
            b"HTTP/1.1\r\n",
            b"\xff\xfe\xfd",
            b"GET /ok HTTP/1.1\r\n\r\n",
        ];
        let mut input = Vec::new();
        for p in picks {
            input.extend_from_slice(TOKENS[p]);
        }
        check(&input, &cuts);
    }
}
