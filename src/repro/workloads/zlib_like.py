"""A zlib-style compression library (paper Figure 4).

The paper compiles zlib with a pure-capability ABI and links it against gzip
in two flavours:

* an **annotated** build whose only change is a pragma so pointers crossing
  the library interface are capabilities — "no measurable overhead for large
  files and a small overhead for small files";
* a **copying** build that preserves binary compatibility by copying
  structures whose layout changed whenever they cross the library boundary —
  "around a 21% overhead, independent of file size".

The mini-C reproduction implements an LZ77 greedy compressor/decompressor
behind a ``z_stream``-like interface with an internal ``deflate_state``
buffer, driven by a gzip-style program that streams a deterministic
synthetic "file" through the library in fixed-size chunks (one library call
per chunk, as gzip does), decompresses it and verifies the round trip.

The copying variant re-implements only the library entry points: every call
marshals the stream structure, its internal state and the data buffers into
library-private copies and marshals the results back.  Because the marshal
cost is paid per call and the number of calls grows linearly with the file,
the overhead is flat across file sizes — the mechanism behind the paper's
~21% line.  The internal-state size is scaled down together with the rest of
the workload (real zlib's deflate state is hundreds of kilobytes); the scale
(``_STATE_BYTES`` = 128 bytes) is chosen so the copy-to-compress ratio matches
the paper's regime: ``results/fig4_zlib.txt`` shows ~25% copying overhead at
every file size.
"""

from __future__ import annotations

from repro.workloads.harness import WorkloadRun, run_workload

DEFAULT_FILE_BYTES = 1024
_CHUNK = 128
_STATE_BYTES = 128
_WINDOW = 12
_MIN_MATCH = 3
_MAX_MATCH = 10

_COMMON = r"""
struct z_stream {
    unsigned char *next_in;
    unsigned char *next_out;
    long avail_in;
    long avail_out;
    long total_in;
    long total_out;
    unsigned char state[%(state_bytes)d];
};

/* ------------------------------------------------------------------ */
/* Core LZ77 compressor (the "library" internals)                      */
/* ------------------------------------------------------------------ */

long deflate_core(const unsigned char *input, long length,
                  unsigned char *output, long capacity,
                  unsigned char *state) {
    long in_pos = 0;
    long out_pos = 0;
    state[0] = state[0] + 1;       /* the state participates, minimally */
    while (in_pos < length) {
        long best_length = 0;
        long best_distance = 0;
        long window_start = in_pos - %(window)d;
        long candidate;
        if (window_start < 0) {
            window_start = 0;
        }
        for (candidate = window_start; candidate < in_pos; candidate++) {
            long match = 0;
            while (match < %(max_match)d
                   && in_pos + match < length
                   && input[candidate + match] == input[in_pos + match]) {
                match++;
            }
            if (match > best_length) {
                best_length = match;
                best_distance = in_pos - candidate;
            }
        }
        if (out_pos + 3 > capacity) {
            return -1;
        }
        if (best_length >= %(min_match)d) {
            output[out_pos] = 1;
            output[out_pos + 1] = (unsigned char)best_distance;
            output[out_pos + 2] = (unsigned char)best_length;
            out_pos += 3;
            in_pos += best_length;
        } else {
            output[out_pos] = 0;
            output[out_pos + 1] = input[in_pos];
            out_pos += 2;
            in_pos += 1;
        }
    }
    return out_pos;
}

long inflate_core(const unsigned char *input, long length,
                  unsigned char *output, long capacity,
                  unsigned char *state) {
    long in_pos = 0;
    long out_pos = 0;
    state[1] = state[1] + 1;
    while (in_pos < length) {
        int token = input[in_pos];
        if (token == 0) {
            if (out_pos + 1 > capacity) {
                return -1;
            }
            output[out_pos] = input[in_pos + 1];
            out_pos += 1;
            in_pos += 2;
        } else {
            long distance = input[in_pos + 1];
            long run = input[in_pos + 2];
            long i;
            if (out_pos + run > capacity) {
                return -1;
            }
            for (i = 0; i < run; i++) {
                output[out_pos + i] = output[out_pos - distance + i];
            }
            out_pos += run;
            in_pos += 3;
        }
    }
    return out_pos;
}
"""

_ANNOTATED_LIBRARY = r"""
/* ------------------------------------------------------------------ */
/* Library interface, annotated ABI: pointers cross the boundary as-is */
/* ------------------------------------------------------------------ */

long lib_deflate(struct z_stream *stream) {
    long produced = deflate_core(stream->next_in, stream->avail_in,
                                 stream->next_out, stream->avail_out,
                                 stream->state);
    if (produced < 0) {
        return -1;
    }
    stream->total_in += stream->avail_in;
    stream->total_out += produced;
    return produced;
}

long lib_inflate(struct z_stream *stream) {
    long produced = inflate_core(stream->next_in, stream->avail_in,
                                 stream->next_out, stream->avail_out,
                                 stream->state);
    if (produced < 0) {
        return -1;
    }
    stream->total_in += stream->avail_in;
    stream->total_out += produced;
    return produced;
}
"""

_COPYING_LIBRARY = r"""
/* ------------------------------------------------------------------ */
/* Library interface, copying ABI: the stream structure (including its */
/* internal state) and both data buffers are copied across the library */
/* boundary on every call, preserving binary compatibility.            */
/* ------------------------------------------------------------------ */

unsigned char boundary_in[%(chunk_capacity)d];
unsigned char boundary_out[%(chunk_capacity)d];
unsigned char boundary_state[%(state_bytes)d];

void boundary_copy(unsigned char *dst, const unsigned char *src, long length) {
    long i;
    for (i = 0; i < length; i++) {
        dst[i] = src[i];
    }
}

long lib_deflate(struct z_stream *stream) {
    long produced;
    boundary_copy(boundary_in, stream->next_in, stream->avail_in);
    boundary_copy(boundary_state, stream->state, %(state_bytes)d);
    produced = deflate_core(boundary_in, stream->avail_in,
                            boundary_out, stream->avail_out,
                            boundary_state);
    if (produced < 0) {
        return -1;
    }
    boundary_copy(stream->next_out, boundary_out, produced);
    boundary_copy(stream->state, boundary_state, %(state_bytes)d);
    stream->total_in += stream->avail_in;
    stream->total_out += produced;
    return produced;
}

long lib_inflate(struct z_stream *stream) {
    long produced;
    boundary_copy(boundary_in, stream->next_in, stream->avail_in);
    boundary_copy(boundary_state, stream->state, %(state_bytes)d);
    produced = inflate_core(boundary_in, stream->avail_in,
                            boundary_out, stream->avail_out,
                            boundary_state);
    if (produced < 0) {
        return -1;
    }
    boundary_copy(stream->next_out, boundary_out, produced);
    boundary_copy(stream->state, boundary_state, %(state_bytes)d);
    stream->total_in += stream->avail_in;
    stream->total_out += produced;
    return produced;
}
"""

_MAIN = r"""
/* ------------------------------------------------------------------ */
/* The gzip-style driver: streams the file chunk by chunk              */
/* ------------------------------------------------------------------ */

long fill_file(unsigned char *buffer, long length) {
    long state = 424242;
    long i;
    for (i = 0; i < length; i++) {
        /* compressible mix: runs of repeated text with pseudo-random noise */
        if ((i / 64) %% 3 == 0) {
            buffer[i] = (unsigned char)(65 + (i %% 24));
        } else {
            state = state * 279470273 %% 4294967291;
            buffer[i] = (unsigned char)(state %% 17 + 97);
        }
    }
    return length;
}

int main(void) {
    long file_bytes = %(file_bytes)d;
    long chunk = %(chunk)d;
    unsigned char *original = (unsigned char *)malloc(file_bytes);
    unsigned char *compressed = (unsigned char *)malloc(file_bytes * 2 + 64);
    unsigned char *restored = (unsigned char *)malloc(file_bytes + 64);
    long *chunk_sizes = (long *)malloc(sizeof(long) * (file_bytes / chunk + 2));
    struct z_stream stream;
    long compressed_bytes = 0;
    long chunk_count = 0;
    long consumed = 0;
    long produced;
    long restored_bytes = 0;
    long i;

    fill_file(original, file_bytes);
    memset(stream.state, 0, %(state_bytes)d);

    while (consumed < file_bytes) {
        long this_chunk = file_bytes - consumed;
        if (this_chunk > chunk) {
            this_chunk = chunk;
        }
        stream.next_in = original + consumed;
        stream.avail_in = this_chunk;
        stream.next_out = compressed + compressed_bytes;
        stream.avail_out = file_bytes * 2 + 64 - compressed_bytes;
        produced = lib_deflate(&stream);
        if (produced < 0) {
            return 2;
        }
        chunk_sizes[chunk_count] = produced;
        chunk_count++;
        compressed_bytes += produced;
        consumed += this_chunk;
    }
    mini_checkpoint(compressed_bytes);

    consumed = 0;
    for (i = 0; i < chunk_count; i++) {
        stream.next_in = compressed + consumed;
        stream.avail_in = chunk_sizes[i];
        stream.next_out = restored + restored_bytes;
        stream.avail_out = file_bytes + 64 - restored_bytes;
        produced = lib_inflate(&stream);
        if (produced < 0) {
            return 3;
        }
        consumed += chunk_sizes[i];
        restored_bytes += produced;
    }
    if (restored_bytes != file_bytes) {
        return 4;
    }
    for (i = 0; i < file_bytes; i++) {
        if (original[i] != restored[i]) {
            return 5;
        }
    }
    printf("compressed %%d -> %%d bytes in %%d chunks\n",
           (int)file_bytes, (int)compressed_bytes, (int)chunk_count);
    return 0;
}
"""


def source(*, file_bytes: int = DEFAULT_FILE_BYTES, copying: bool = False,
           chunk: int = _CHUNK) -> str:
    """The gzip-style driver plus one of the two library ABI variants."""
    params = {
        "file_bytes": file_bytes,
        "chunk": chunk,
        "window": _WINDOW,
        "min_match": _MIN_MATCH,
        "max_match": _MAX_MATCH,
        "state_bytes": _STATE_BYTES,
        "chunk_capacity": chunk * 2 + 64,
    }
    library = _COPYING_LIBRARY if copying else _ANNOTATED_LIBRARY
    return (_COMMON % params) + (library % params) + (_MAIN % params)


def run(model: str, *, file_bytes: int = DEFAULT_FILE_BYTES, copying: bool = False) -> WorkloadRun:
    """Run the compression round trip under a memory model."""
    name = "zlib-copying" if copying else "zlib"
    return run_workload(name, source(file_bytes=file_bytes, copying=copying), model)


def run_figure4(file_sizes: tuple[int, ...] = (256, 512, 1024), *, baseline_model: str = "pdp11",
                cheri_model: str = "cheri_v3") -> list[dict]:
    """Figure 4 series: overhead of the two CHERI builds vs. MIPS per file size."""
    rows = []
    for file_bytes in file_sizes:
        baseline = run(baseline_model, file_bytes=file_bytes)
        annotated = run(cheri_model, file_bytes=file_bytes)
        copying = run(cheri_model, file_bytes=file_bytes, copying=True)
        rows.append({
            "file_bytes": file_bytes,
            "baseline_cycles": baseline.cycles,
            "annotated_cycles": annotated.cycles,
            "copying_cycles": copying.cycles,
            "annotated_overhead": annotated.overhead_vs(baseline),
            "copying_overhead": copying.overhead_vs(baseline),
        })
    return rows
