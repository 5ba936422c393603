//! Videos — ordered chunk sequences with identity and resolution.

use crate::chunk::{Chunk, ChunkId};
use lpvs_display::spec::Resolution;
use serde::{Deserialize, Serialize};

/// Identifier of a video/stream (the paper's `VID`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct VideoId(pub u64);

impl std::fmt::Display for VideoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A video: an ordered run of chunks at one source resolution.
///
/// In the live-streaming setting a "video" is the recorded prefix of a
/// channel; the chunks available at a scheduling point are a window of
/// this sequence (paper eq. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Video {
    id: VideoId,
    resolution: Resolution,
    chunks: Vec<Chunk>,
}

impl Video {
    /// Creates a video from its chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty or chunk ids are not the
    /// consecutive run `0..len`.
    pub fn new(id: VideoId, resolution: Resolution, chunks: Vec<Chunk>) -> Self {
        assert!(!chunks.is_empty(), "a video needs at least one chunk");
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.id, ChunkId(i as u32), "chunk ids must be consecutive from 0");
        }
        Self { id, resolution, chunks }
    }

    /// Video identifier.
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// Source resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// All chunks in playback order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The chunk window `[from, from + count)` clamped to the video's
    /// end — the `K_m` chunks available at a scheduling point.
    pub fn window(&self, from: usize, count: usize) -> &[Chunk] {
        let start = from.min(self.chunks.len());
        let end = (from + count).min(self.chunks.len());
        &self.chunks[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_display::stats::FrameStats;

    fn video(n: usize) -> Video {
        let chunks = (0..n)
            .map(|i| {
                Chunk::new(ChunkId(i as u32), 10.0, FrameStats::uniform_gray(0.5), 3000.0)
            })
            .collect();
        Video::new(VideoId(9), Resolution::HD, chunks)
    }

    #[test]
    fn window_clamps_to_end() {
        let v = video(10);
        assert_eq!(v.window(0, 5).len(), 5);
        assert_eq!(v.window(8, 5).len(), 2);
        assert_eq!(v.window(20, 5).len(), 0);
    }

    #[test]
    fn window_preserves_order() {
        let v = video(10);
        let w = v.window(3, 4);
        assert_eq!(w[0].id, ChunkId(3));
        assert_eq!(w[3].id, ChunkId(6));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn empty_video_rejected() {
        let _ = Video::new(VideoId(0), Resolution::HD, vec![]);
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn gapped_chunk_ids_rejected() {
        let chunks = vec![
            Chunk::new(ChunkId(0), 1.0, FrameStats::default(), 1000.0),
            Chunk::new(ChunkId(2), 1.0, FrameStats::default(), 1000.0),
        ];
        let _ = Video::new(VideoId(0), Resolution::HD, chunks);
    }
}
