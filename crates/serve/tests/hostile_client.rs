//! The serve socket is a trust boundary: a client that streams bytes
//! without ever sending a newline must get one `err` line and a closed
//! connection once it passes the request-line cap, instead of growing
//! the server's line buffer without bound — and the server must keep
//! answering everyone else.

mod common;

use asrank_serve::server::MAX_REQUEST_LINE;
use asrank_serve::Server;
use common::{sample_paths, scratch, warm_cache};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

#[test]
fn unterminated_request_line_is_capped_and_connection_closed() {
    let root = scratch("hostile");
    let spec = warm_cache(&root, b"hostile-rib", &sample_paths());
    let server = Server::start(spec, 0, None).expect("start server");

    // 1 MiB of request bytes with no newline. The server stops reading
    // at the cap and closes, so the tail of this write may be refused
    // with a reset — that is the expected outcome, not a failure.
    let junk = vec![b'a'; 1 << 20];
    assert!(junk.len() > MAX_REQUEST_LINE);
    let (mut reader, mut writer) = connect(&server);
    let _ = writer.write_all(&junk);

    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read error answer");
    assert_eq!(answer, "err line too long\n");

    // Then the connection is closed: EOF, or a reset for the unread tail.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Ok(_) => panic!("connection stayed open and answered {rest:?}"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
            "unexpected read error after the cap: {e}"
        ),
    }

    // A well-behaved client is still served.
    let (mut reader, mut writer) = connect(&server);
    writeln!(writer, "gen").expect("write request");
    let mut gen = String::new();
    reader.read_line(&mut gen).expect("read answer");
    assert_eq!(gen.trim(), "1");

    // A request exactly at the cap (newline included) is still parsed.
    let long = format!("{}\n", "x".repeat(MAX_REQUEST_LINE - 1));
    writer
        .write_all(long.as_bytes())
        .expect("write long request");
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read answer");
    assert!(
        answer.starts_with("err ") && answer != "err line too long\n",
        "{answer:?}"
    );
}
