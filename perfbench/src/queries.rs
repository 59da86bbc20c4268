//! The seeded query mix, its answers from the owned engine outputs, and
//! a line-protocol TCP client.

use crate::common::Cones;
use crate::stats::Rng;
use asrank_core::pipeline::Inference;
use asrank_core::rank_ases;
use asrank_serve::{format_answer, Answer, ConeFlavor, Query};
use asrank_types::Asn;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One request: the parsed query and its protocol line (with `\n`).
#[derive(Debug, Clone)]
pub struct Request {
    pub query: Query,
    pub line: String,
}

fn line_of(q: Query) -> String {
    match q {
        Query::Rel(x, y) => format!("rel {} {}\n", x.0, y.0),
        Query::ConeContains(f, x, y) => format!("cone {f} {} {}\n", x.0, y.0),
        Query::ConeSize(f, x) => format!("cone-size {f} {}\n", x.0),
        Query::Degree(x) => format!("degree {}\n", x.0),
        Query::Rank(x) => format!("rank {}\n", x.0),
    }
}

/// `n` requests drawn from `seed`: `rel` (half on inferred links, half
/// on random pairs), `cone`, `cone-size`, `rank` and `degree`, with the
/// queried ASes skewed toward high degree.
pub fn mix(inf: &Inference, seed: u64, n: usize) -> Vec<Request> {
    let ranked = inf.degrees.ranked();
    let mut links: Vec<(Asn, Asn)> = inf.relationships.iter().map(|(l, _)| (l.a, l.b)).collect();
    links.sort_unstable();
    let mut rng = Rng::new(seed);
    // Cubing a uniform draw puts half the picks in the top eighth of the
    // degree order.
    let skewed = |rng: &mut Rng| ranked[((ranked.len() as f64) * rng.unit().powi(3)) as usize];
    let flavors = ConeFlavor::ALL;
    (0..n)
        .map(|_| {
            let r = rng.unit();
            let q = if r < 0.2 && !links.is_empty() {
                let (a, b) = links[rng.below(links.len())];
                if rng.below(2) == 0 {
                    Query::Rel(a, b)
                } else {
                    Query::Rel(b, a)
                }
            } else if r < 0.4 {
                Query::Rel(skewed(&mut rng), skewed(&mut rng))
            } else if r < 0.6 {
                let f = flavors[rng.below(3)];
                let x = skewed(&mut rng);
                Query::ConeContains(f, x, ranked[rng.below(ranked.len())])
            } else if r < 0.75 {
                Query::ConeSize(flavors[rng.below(3)], skewed(&mut rng))
            } else if r < 0.875 {
                Query::Rank(skewed(&mut rng))
            } else {
                Query::Degree(skewed(&mut rng))
            };
            Request {
                query: q,
                line: line_of(q),
            }
        })
        .collect()
}

/// Answers built from the owned cold-run inference and cones.
pub struct Oracle {
    inf: Arc<Inference>,
    cones: Cones,
    rank: HashMap<Asn, u64>,
}

impl Oracle {
    pub fn new(inf: Arc<Inference>, cones: Cones) -> Self {
        let rank = rank_ases(&cones.0, &inf.degrees)
            .into_iter()
            .map(|r| (r.asn, r.rank as u64))
            .collect();
        Oracle { inf, cones, rank }
    }

    pub fn answer(&self, q: Query) -> Answer {
        let cone = |f: ConeFlavor| match f {
            ConeFlavor::Recursive => &self.cones.0,
            ConeFlavor::BgpObserved => &self.cones.1,
            ConeFlavor::ProviderPeer => &self.cones.2,
        };
        match q {
            Query::Rel(x, y) => Answer::Rel(self.inf.relationships.orientation(x, y)),
            Query::ConeContains(f, x, y) => Answer::ConeContains(cone(f).contains(x, y)),
            Query::ConeSize(f, x) => Answer::ConeSize(cone(f).size(x)),
            Query::Degree(x) => Answer::Degree(
                self.inf.degrees.transit_degree(x) as u64,
                self.inf.degrees.node_degree(x) as u64,
            ),
            Query::Rank(x) => Answer::Rank(self.rank.get(&x).copied()),
        }
    }

    /// The expected protocol line (without `\n`).
    pub fn line(&self, q: Query) -> String {
        format_answer(&self.answer(q))
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            reader,
            writer,
            buf: String::new(),
        })
    }

    /// Send one request line (one write) and read one answer line.
    pub fn ask(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end())
    }

    /// Send `quit` and close.
    pub fn quit(mut self) -> std::io::Result<()> {
        self.writer.write_all(b"quit\n")
    }
}
