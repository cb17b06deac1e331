//! Plain-text serialisation of hypergraphs and projected graphs.
//!
//! Formats (one record per line, `#`-prefixed comment lines skipped):
//!
//! * Hypergraph: `<multiplicity> <node> <node> [...]`
//! * Projected graph: `<u> <v> <weight>`
//!
//! Buffered readers/writers throughout (perf-book: buffer your I/O), and a
//! reusable line buffer instead of per-line allocation.

use crate::error::HypergraphError;
use crate::graph::ProjectedGraph;
use crate::hyperedge::Hyperedge;
use crate::hypergraph::Hypergraph;
use crate::node::NodeId;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `h` in the line format described in the module docs.
pub fn write_hypergraph<W: Write>(h: &Hypergraph, writer: W) -> Result<(), HypergraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# marioh hypergraph v1: <multiplicity> <node...>")?;
    for e in h.sorted_edges() {
        write!(out, "{}", h.multiplicity(e))?;
        for n in e.nodes() {
            write!(out, " {n}")?;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a hypergraph written by [`write_hypergraph`].
///
/// Node ids must leave room for the node count (`id < u32::MAX`), and the
/// multiplicities must sum to at most `u32::MAX`. That total bounds every
/// projected pair weight and every per-edge multiplicity, so neither can
/// wrap downstream.
///
/// The node count (largest id + 1) must also be at most
/// `max(65_536, 8 × node ids read)`. Later stages allocate per node, so
/// one line such as `1 0 400000000` would otherwise ask for gigabytes; the
/// error names the line holding the largest id. Real edge lists use far
/// denser ids than one in eight.
pub fn read_hypergraph<R: Read>(reader: R) -> Result<Hypergraph, HypergraphError> {
    let mut h = Hypergraph::new(0);
    let mut total = 0u64;
    let mut node_tokens = 0u64;
    let mut largest = (0u32, 0usize); // (id, line)
    let mut input = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_ascii_whitespace();
        let mult: u32 = parse_token(tokens.next(), lineno, "multiplicity")?;
        if mult == 0 {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: "multiplicity must be positive".into(),
            });
        }
        total += u64::from(mult);
        if total > u64::from(u32::MAX) {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: format!("total multiplicity exceeds {}", u32::MAX),
            });
        }
        let nodes: Vec<NodeId> = tokens
            .map(|t| match parse_token::<u32>(Some(t), lineno, "node id")? {
                u32::MAX => Err(HypergraphError::Parse {
                    line: lineno,
                    message: format!("node id {} is out of range", u32::MAX),
                }),
                id => Ok(NodeId(id)),
            })
            .collect::<Result<_, _>>()?;
        node_tokens += nodes.len() as u64;
        if let Some(&NodeId(id)) = nodes.iter().max() {
            if id > largest.0 || largest.1 == 0 {
                largest = (id, lineno);
            }
        }
        let edge = Hyperedge::new(nodes).ok_or_else(|| HypergraphError::Parse {
            line: lineno,
            message: "hyperedge needs at least 2 distinct nodes".into(),
        })?;
        h.add_edge_with_multiplicity(edge, mult);
    }
    let cap = MIN_NODE_CAP.max(NODE_ID_DENSITY.saturating_mul(node_tokens));
    if h.num_nodes() as u64 > cap {
        return Err(HypergraphError::Parse {
            line: largest.1,
            message: format!(
                "node id {} implies {} nodes, more than {cap} for {node_tokens} node ids read",
                largest.0,
                h.num_nodes()
            ),
        });
    }
    Ok(h)
}

/// Node counts up to this many are always accepted by [`read_hypergraph`].
const MIN_NODE_CAP: u64 = 65_536;

/// Above [`MIN_NODE_CAP`], [`read_hypergraph`] accepts at most this many
/// nodes per node id read.
const NODE_ID_DENSITY: u64 = 8;

/// Writes `g` as `u v w` lines.
pub fn write_graph<W: Write>(g: &ProjectedGraph, writer: W) -> Result<(), HypergraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# marioh projected graph v1: <u> <v> <weight>")?;
    for (u, v, w) in g.sorted_edge_list() {
        writeln!(out, "{u} {v} {w}")?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a projected graph written by [`write_graph`].
pub fn read_graph<R: Read>(reader: R) -> Result<ProjectedGraph, HypergraphError> {
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut max_node = 0u32;
    let mut input = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_ascii_whitespace();
        let u: u32 = parse_token(tokens.next(), lineno, "u")?;
        let v: u32 = parse_token(tokens.next(), lineno, "v")?;
        let w: u32 = parse_token(tokens.next(), lineno, "weight")?;
        if u == v {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: format!("self-loop on node {u}"),
            });
        }
        if w == 0 {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: "zero edge weight".into(),
            });
        }
        max_node = max_node.max(u).max(v);
        edges.push((u, v, w));
    }
    let mut g = ProjectedGraph::new(if edges.is_empty() { 0 } else { max_node + 1 });
    for (u, v, w) in edges {
        g.add_edge_weight(NodeId(u), NodeId(v), w);
    }
    Ok(g)
}

/// Convenience: write a hypergraph to a file path.
pub fn save_hypergraph<P: AsRef<Path>>(h: &Hypergraph, path: P) -> Result<(), HypergraphError> {
    write_hypergraph(h, std::fs::File::create(path)?)
}

/// Convenience: read a hypergraph from a file path.
pub fn load_hypergraph<P: AsRef<Path>>(path: P) -> Result<Hypergraph, HypergraphError> {
    read_hypergraph(std::fs::File::open(path)?)
}

/// Convenience: write a projected graph to a file path.
pub fn save_graph<P: AsRef<Path>>(g: &ProjectedGraph, path: P) -> Result<(), HypergraphError> {
    write_graph(g, std::fs::File::create(path)?)
}

/// Convenience: read a projected graph from a file path.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<ProjectedGraph, HypergraphError> {
    read_graph(std::fs::File::open(path)?)
}

fn parse_token<T: std::str::FromStr>(
    token: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, HypergraphError> {
    let token = token.ok_or_else(|| HypergraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    token.parse().map_err(|_| HypergraphError::Parse {
        line,
        message: format!("invalid {what}: {token:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperedge::edge;
    use crate::projection::project;

    fn sample() -> Hypergraph {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 2);
        h.add_edge(edge(&[1, 3]));
        h
    }

    #[test]
    fn hypergraph_round_trip() {
        let h = sample();
        let mut buf = Vec::new();
        write_hypergraph(&h, &mut buf).unwrap();
        let back = read_hypergraph(buf.as_slice()).unwrap();
        assert_eq!(back.unique_edge_count(), h.unique_edge_count());
        assert_eq!(back.total_edge_count(), h.total_edge_count());
        assert_eq!(back.multiplicity(&edge(&[0, 1, 2])), 2);
    }

    #[test]
    fn graph_round_trip() {
        let g = project(&sample());
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(buf.as_slice()).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.total_weight(), g.total_weight());
        assert_eq!(
            back.weight(NodeId(1), NodeId(2)),
            g.weight(NodeId(1), NodeId(2))
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n2 0 1 2\n\n# trailing\n1 1 3\n";
        let h = read_hypergraph(text.as_bytes()).unwrap();
        assert_eq!(h.unique_edge_count(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_hypergraph("x 0 1".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_hypergraph("0 0 1".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_hypergraph("1 5".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        // A node id with no `id + 1` (the node count would wrap).
        assert!(matches!(
            read_hypergraph("1 0 4294967295".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        // Multiplicities summing past u32::MAX (pair weights would wrap).
        assert!(matches!(
            read_hypergraph("4294967295 0 1\n4294967295 0 1".as_bytes()),
            Err(HypergraphError::Parse { line: 2, .. })
        ));
        // A sparse id implying far more nodes than the ids read (the
        // projection would allocate per node); the line with the largest
        // id is reported.
        assert!(matches!(
            read_hypergraph("1 0 1\n1 0 400000000\n1 2 3".as_bytes()),
            Err(HypergraphError::Parse { line: 2, .. })
        ));
        // Multiplicities summing to exactly u32::MAX are accepted.
        assert_eq!(
            read_hypergraph("4294967294 0 1\n1 0 2".as_bytes())
                .unwrap()
                .total_edge_count(),
            u64::from(u32::MAX)
        );
        // The largest id that passes the wrap check is still far too
        // sparse for the ids read.
        assert!(matches!(
            read_hypergraph("4294967294 0 1\n1 0 4294967294".as_bytes()),
            Err(HypergraphError::Parse { line: 2, .. })
        ));
        // At the floor and at one node per eight ids read, ids are
        // accepted; one more node is not.
        assert_eq!(
            read_hypergraph("1 0 65535".as_bytes()).unwrap().num_nodes(),
            65_536
        );
        let dense = (0..8_200u32)
            .map(|i| format!("1 {} {}\n", 2 * i, 2 * i + 1))
            .collect::<String>();
        let at_cap = format!("{dense}1 0 {}\n", 8 * 16_402 - 1);
        assert_eq!(
            read_hypergraph(at_cap.as_bytes()).unwrap().num_nodes(),
            8 * 16_402
        );
        let past_cap = format!("{dense}1 0 {}\n", 8 * 16_402);
        assert!(matches!(
            read_hypergraph(past_cap.as_bytes()),
            Err(HypergraphError::Parse { line: 8_201, .. })
        ));
        assert!(matches!(
            read_graph("1 1 4".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_graph("1 2 0".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_graph("1 2".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn graph_file_round_trip() {
        let dir = std::env::temp_dir().join("marioh-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = project(&sample());
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.total_weight(), g.total_weight());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("marioh-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.txt");
        let h = sample();
        save_hypergraph(&h, &path).unwrap();
        let back = load_hypergraph(&path).unwrap();
        assert_eq!(back.unique_edge_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
