"""Re-packed and damaged copies of a JAR.

``repacked`` writes a JAR's entries again with another compression;
``damaged_entry`` re-packs a JAR and damages one entry so that
``zipfile.ZipFile.read`` raises for it; ``damaged_central_directory``
damages the central directory so that the archive fails to open, or
every entry's local header offset points before the start of the archive.
"""

import io
import struct
import zipfile
import zlib

# What ZipFile.read raises for each damage of ``damaged_entry`` up to Python
# 3.12; 3.13's zipfile refuses the sizes damage as overlapped entries
# (BadZipFile) before it reads the data.
ENTRY_DAMAGES = {"crc": zipfile.BadZipFile, "inflate": zlib.error, "sizes": EOFError,
                 "encrypted": RuntimeError, "method": NotImplementedError,
                 "short": zipfile.BadZipFile, "short-inflated": zipfile.BadZipFile}

# An extra-field id no zip tool defines.
_PLACEHOLDER_EXTRA = 0x9999


class _Unseekable(io.RawIOBase):
    """A write-only stream zipfile cannot seek back in, so it writes each
    entry's sizes and CRC in a data descriptor after its data."""

    def __init__(self, buf: io.BytesIO):
        self.buf = buf

    def writable(self):
        return True

    def write(self, b):
        return self.buf.write(b)


def repacked(jar: bytes, compression: int = zipfile.ZIP_DEFLATED,
             seekable: bool = True) -> bytes:
    """The JAR's entries written again with ``compression``; not
    ``seekable``, each with a data descriptor."""
    src = zipfile.ZipFile(io.BytesIO(jar))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf if seekable else _Unseekable(buf), "w", compression) as dst:
        for info in src.infolist():
            dst.writestr(info.filename, src.read(info))
    return buf.getvalue()


def damaged_entry(jar: bytes, path: str, damage: str) -> bytes:
    """Re-pack the JAR, then damage ``path``'s entry.

    crc: stored, one byte flipped mid-data, so its CRC fails; inflate:
    deflated, a reserved block type in its first byte; sizes: its sizes
    in the central directory run past the end of the archive; encrypted:
    its encryption flag set; method: compression method 99 (AES), which
    zipfile does not implement; short and short-inflated: stored or
    deflated, its size in the central directory one byte short, so
    zipfile cuts its data there and the CRC fails.

    zip64-size is no damage zipfile refuses: deflated, its size in the
    central directory is 0xFFFFFFFF with a ZIP64 extra field stating
    2**64 - 1, more than a Py_ssize_t holds; zipfile reads the entry to
    the end of its deflate stream.
    """
    compression = (zipfile.ZIP_DEFLATED if damage in ("inflate", "short-inflated", "zip64-size")
                   else zipfile.ZIP_STORED)
    src = zipfile.ZipFile(io.BytesIO(jar))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as out:
        for info in src.infolist():
            raw = src.read(info)
            info.compress_type = compression
            if damage == "zip64-size" and info.filename == path:
                # Room for the ZIP64 field, under an id zipfile copies as it is.
                info.extra += struct.pack("<HHQ", _PLACEHOLDER_EXTRA, 8, 0)
            out.writestr(info, raw)
    data = bytearray(buf.getvalue())
    info = zipfile.ZipFile(io.BytesIO(data)).getinfo(path)
    local = info.header_offset
    name_len, extra_len = struct.unpack_from("<HH", data, local + 26)
    start = local + 30 + name_len + extra_len
    name = path.encode()
    central = data.find(b"PK\x01\x02")
    while data[central + 46:central + 46 + len(name)] != name:
        central = data.find(b"PK\x01\x02", central + 46)
    if damage == "crc":
        data[start + info.compress_size // 2] ^= 0xFF
    elif damage == "inflate":
        data[start] |= 0x06
    elif damage == "sizes":
        struct.pack_into("<II", data, central + 20,
                         info.compress_size + 100_000, info.file_size + 100_000)
    elif damage.startswith("short"):
        struct.pack_into("<I", data, central + 24, info.file_size - 1)
    elif damage == "zip64-size":
        struct.pack_into("<I", data, central + 24, 0xFFFFFFFF)
        extra = data.find(struct.pack("<HH", _PLACEHOLDER_EXTRA, 8), central)
        struct.pack_into("<HHQ", data, extra, 1, 8, 2**64 - 1)
    elif damage == "encrypted":
        data[local + 6] |= 1
        data[central + 8] |= 1
    else:
        struct.pack_into("<H", data, local + 8, 99)
        struct.pack_into("<H", data, central + 10, 99)
    return bytes(data)


def damaged_central_directory(jar: bytes, damage: str) -> bytes:
    """Damage the JAR's central directory in place.

    version: the first central header's "version needed to extract" set
    to 7.2, so ZipFile() raises NotImplementedError; offset: the end
    record's central-directory offset raised by 1000, so every entry's
    local header offset moves 1000 bytes back and ZipFile.read raises
    ValueError (a negative seek) or BadZipFile (a bad local header).
    """
    data = bytearray(jar)
    if damage == "version":
        data[data.find(b"PK\x01\x02") + 6] = 72
    else:
        end = data.rfind(b"PK\x05\x06")
        (offset,) = struct.unpack_from("<I", data, end + 16)
        struct.pack_into("<I", data, end + 16, offset + 1000)
    return bytes(data)

